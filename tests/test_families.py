"""The row stream of every product family against the naive oracles."""

import sys

import pytest

import oracles
from qunimodal.polynomials import ProductSpec, _times as times, build_product, family_rows


def rows_of(spec):
    return [(n, list(p.coeffs)) for n, p in family_rows(spec)]


class TestFamilyRows:
    def test_main_rows_match_oracle(self):
        want = [(n, oracles.naive_product(oracles.main_factors(n))) for n in range(11)]
        assert rows_of(ProductSpec.main(10)) == want

    def test_odd_rows_match_oracle(self):
        want = [(n, oracles.naive_product(oracles.odd_factors(n))) for n in range(11)]
        assert rows_of(ProductSpec.odd(10)) == want

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_quotient_rows_match_block_oracle(self, r):
        want = [(n, oracles.gaussian_product(r, n)) for n in range(1, 13)]
        assert rows_of(ProductSpec.almkvist(r, 12)) == want

    def test_general_product_is_one_untagged_row(self):
        factors = [(-1, 1), (1, 1), (1, 3), (-1, 4)]
        assert rows_of(ProductSpec.general(factors)) == [(None, oracles.naive_product(factors))]

    @pytest.mark.parametrize(
        "spec",
        [ProductSpec.main(5), ProductSpec.odd(7), ProductSpec.odd(0), ProductSpec.almkvist(4, 6),
         ProductSpec.general([(1, 2), (-1, 5)])],
    )
    def test_build_product_is_the_last_row(self, spec):
        *_, (_, last) = family_rows(spec)
        assert build_product(spec) == last

    @pytest.mark.parametrize("spec", [ProductSpec.main(6), ProductSpec.odd(6), ProductSpec.almkvist(3, 6)])
    def test_a_dropped_row_is_held_only_by_the_stream_extending_it(self, spec, monkeypatch):
        # Every factor, whether it extends a row the consumer has seen or an
        # intermediate product it never saw, finds its input held the same way.
        counts = []

        def spy(limbs, *args):
            counts.append(sys.getrefcount(limbs))
            return times(limbs, *args)

        monkeypatch.setattr("qunimodal.polynomials._times", spy)
        for _, p in family_rows(spec):
            del p
        assert len(counts) >= 6 and len(set(counts)) == 1

    def test_odd_spec_validation(self):
        with pytest.raises(ValueError):
            ProductSpec.odd(-1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            list(family_rows(ProductSpec(family="even", n=3)))
