"""The row stream of every product family against the naive oracles."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qunimodal import cli
from qunimodal.analytic import mu_of
from qunimodal.polynomials import (
    ProductSpec, _times as times, build_product, checked_rows, family_rows, main_window,
)


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
        counts, homes = [], set()

        def spy(limbs, *args):
            counts.append(sys.getrefcount(limbs))
            homes.add(id(limbs.base))  # a held row would send the next to a fresh array
            return times(limbs, *args)

        monkeypatch.setattr("qunimodal.polynomials._times", spy)
        for _, p in family_rows(spec):
            del p
        assert len(counts) >= 6 and len(set(counts)) == 1 and len(homes) == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "main", "--n-max", "12"],
        ["verify", "--family", "odd", "--a", "3", "--n-min", "27", "--n-max", "33"],
        ["verify", "--family", "almkvist", "--r", "3", "--n-min", "11", "--n-max", "16"],
        ["verify", "--family", "general", "--factors", "+1,+2,+3,+4,+5,+6,+7"],
        ["almkvist", "--r", "4", "--n-min", "3", "--n-max", "12"],
        ["lemma", "--n-min", "5", "--n-max", "12"],
        ["induction", "--n-max", "12"],
        ["borwein", "--n-min", "5", "--n-max", "12"],
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_every_row_command_grows_its_rows_in_place(self, argv, tmp_path, monkeypatch):
        # One stream array (the planes' base) through every factor of every
        # row, held the same way each time: no row outlives its check.
        counts, homes = [], set()

        def spy(limbs, *args):
            counts.append(sys.getrefcount(limbs.base))
            homes.add(id(limbs.base))
            return times(limbs, *args)

        monkeypatch.setattr("qunimodal.polynomials._times", spy)
        assert cli.main([*argv, "--report", str(tmp_path / "r.json")]) == 0
        assert len(counts) >= 6 and len(set(counts)) == 1 and len(homes) == 1

    def test_checked_rows_starts_at_n_min(self):
        seen = list(checked_rows(ProductSpec.signed(6), lambda n, p: (n, list(p.coeffs)), 4))
        assert seen == [(n, oracles.naive_product(oracles.borwein_factors(n))) for n in range(4, 7)]
        assert list(checked_rows(ProductSpec.general([(1, 2)]), lambda n, p: n, 4)) == [None]

    @pytest.mark.parametrize("n_min", [-1, 7])
    def test_checked_rows_refuses_a_sweep_of_no_row(self, n_min):
        def check(n, p):
            raise AssertionError("no row is checked")

        with pytest.raises(ValueError, match="n_min"):
            list(checked_rows(ProductSpec.main(6), check, n_min))

    def test_general_product_is_checked_at_any_n_min(self, tmp_path, capsys):
        # a general product has no n, so no --n-min >= 0 makes its sweep empty
        argv = ["verify", "--family", "general", "--factors", "+1,+2", "--n-min", "200"]
        assert cli.main([*argv, "--report", str(tmp_path / "r.json")]) == 0

    @given(st.integers(0, 20_000))
    def test_main_window_is_the_centres_of_rows_n_minus_1_and_n(self, n):
        window, d = main_window(n), 3 * (n + 1) ** 2
        assert (window.start, window[-1]) == (-(-3 * n**2 // 2), d // 2)
        assert [d - 2 * m for m in reversed(window)] == list(range(d % 2, 6 * n + 4, 2))
        for m in range(window.start - 2, window[-1] + 3):
            assert mu_of(n, m) == (d - 2 * m, 0 <= d - 2 * m <= 6 * n + 3)

    def test_odd_spec_validation(self):
        with pytest.raises(ValueError):
            ProductSpec.odd(-1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            list(family_rows(ProductSpec(family="even", n=3)))

    @pytest.mark.parametrize(
        "family,fields,message",
        [
            ("main", {"n": -1}, "main family needs n >= 0"),
            ("odd", {"n": -2}, "odd family needs n >= 0"),
            ("signed", {}, "signed family needs n >= 0"),
            ("almkvist", {"r": 1, "n": 3}, "quotient family needs r >= 2"),
            ("almkvist", {"r": 3, "n": 0}, "quotient family needs n >= 1"),
            ("general", {"factors": ((2, 1),)}, "sign must be"),
        ],
    )
    def test_a_direct_spec_checks_itself(self, family, fields, message):
        # made without a classmethod, a spec is checked just the same
        with pytest.raises(ValueError, match=message):
            ProductSpec(family, **fields)
