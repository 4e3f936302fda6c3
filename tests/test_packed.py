"""Packed rows against the brute-force oracles.

Every structural check reads a row's slot bytes, never a coefficient
list, so each report is held to one built by ``tests/oracles.py`` from
plain Python lists: on hypothesis lists (negative and multi-limb entries
included), on neighbours that tie in their top 64 bits, on a row-60
chain row with one coefficient moved, and on the CLI's own output.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qunimodal import cli
from qunimodal.checks import (
    check_almost_unimodal,
    check_lemma_range,
    check_sign_pattern,
    check_symmetric,
    check_unimodal,
)
from qunimodal.polynomials import (
    Polynomial,
    ProductSpec,
    build_product,
    divide_exact,
    family_rows,
    main_rows,
    mul_binomial,
    product_rows,
)


# --- reports the checks must give, built from the oracles -------------------

def want_symmetric(cs):
    j = oracles.symmetric_violation(cs)
    if j is None:
        return {"kind": "symmetric", "passed": True}
    return {"kind": "symmetric", "passed": False, "first_violation": j}


def want_unimodal(cs):
    v = oracles.rise_after_fall(cs)
    if v is not None:
        return {"kind": "unimodal", "passed": False, "first_violation": v}
    lo, hi = oracles.mode_plateau(cs)
    return {"kind": "unimodal", "passed": True, "mode_lo": lo, "mode_hi": hi,
            "details": f"strict={oracles.is_strictly_unimodal(cs)}"}


def want_almost_unimodal(cs, a):
    n = len(cs) - 1
    window = cs[a : n - a + 1]
    v = oracles.rise_after_fall(window)
    if v is not None:
        return {"kind": "almost_unimodal", "passed": False, "first_violation": a + v,
                "details": f"trim={a}"}
    lo, hi = (a + i for i in oracles.mode_plateau(window))
    central = lo <= (n + 1) // 2 and hi >= n // 2
    return {"kind": "almost_unimodal", "passed": True, "mode_lo": lo, "mode_hi": hi,
            "details": f"trim={a} central_peak={central}"}


def want_lemma(n, cs):
    lo, hi = (3 * n * n + 1) // 2, 3 * (n + 1) ** 2 // 2
    m = oracles.first_descent(cs, lo, hi)
    if m is not None:
        return {"kind": "lemma_range", "passed": False, "first_violation": m, "n": n}
    return {"kind": "lemma_range", "passed": True, "n": n, "details": f"window=[{lo},{hi}]"}


def want_sign_pattern(cs, pattern):
    m = oracles.sign_violation(cs, pattern)
    if m is not None:
        return {"kind": "sign_pattern", "passed": False, "first_violation": m}
    text = "".join("+" if s > 0 else "-" for s in pattern)
    return {"kind": "sign_pattern", "passed": True, "details": f"pattern={text}"}


def trimmed(cs):
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs or [0]


def oracle_main_rows(n_max, sign=1):
    """Rows 0..n_max by full convolution, one pair of factors at a time."""
    row = [1]
    rows = []
    for k in range(n_max + 1):
        for e in (3 * k + 1, 3 * k + 2):
            row = oracles.convolve(row, [1] + [0] * (e - 1) + [sign])
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def row_60():
    return tuple(oracle_main_rows(60)[-1])


def packed_by_hand(cs, slot):
    """sum_m cs[m] * 2**(slot*m), computed apart from the package."""
    return sum(c << (slot * m) for m, c in enumerate(cs))


def assert_checks_match(p, cs):
    assert check_symmetric(p).to_json_dict() == want_symmetric(cs)
    assert check_unimodal(p).to_json_dict() == want_unimodal(cs)
    for a in range(min(3, (len(cs) - 1) // 2) + 1):
        assert check_almost_unimodal(p, a).to_json_dict() == want_almost_unimodal(cs, a)


# --- the checks on packed rows ----------------------------------------------

entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**130), 2**130),
    st.integers(0, 2**70),
)
patterns = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4)


class TestChecksOnPackedRows:
    @given(st.lists(entries, min_size=1, max_size=30))
    def test_every_check_matches_the_oracles(self, cs):
        p = Polynomial(cs)
        assert_checks_match(p, trimmed(cs))

    @given(st.lists(entries, min_size=1, max_size=30), patterns)
    def test_sign_pattern_matches_the_oracle(self, cs, pattern):
        p = Polynomial(cs)
        got = check_sign_pattern(p, len(pattern), pattern).to_json_dict()
        assert got == want_sign_pattern(trimmed(cs), pattern)

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=30),
        st.sampled_from([0, 1, 63, 64, 100, 200]),
        st.sampled_from([1, -1]),
    )
    def test_neighbours_tied_in_their_top_64_bits(self, xs, shift, sign):
        # Every entry shares its top 64 used bits, so each order is decided
        # below the key: the tie fallback decides every comparison.
        cs = [sign * (1 << 300) + (x << shift) for x in xs]
        p = Polynomial(cs)
        top = 8 * ((p.bits + p.signed + 7) // 8)
        biased = {(c + p.bias) >> (top - 64) for c in cs}
        assert len(biased) == 1
        assert_checks_match(p, cs)
        pattern = [sign, -sign]
        assert check_sign_pattern(p, 2, pattern).to_json_dict() == want_sign_pattern(cs, pattern)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_row_60_with_one_coefficient_moved(self, data):
        cs = list(row_60())
        p = build_product(ProductSpec.main(60))
        lo, hi = (3 * 60 * 60 + 1) // 2, 3 * 61 * 61 // 2
        m = data.draw(st.one_of(st.integers(0, p.degree), st.integers(lo - 2, hi + 2)))
        # the leading coefficient only moves up, so the degree stays
        delta = data.draw(st.sampled_from([1, -1] if m < p.degree else [1]))
        cs[m] += delta
        assert min(cs) >= 0
        # the chain's own slot layout, and the layout of a row built from a list
        moved = Polynomial._of(p.packed + delta * (1 << (p.slot * m)), p.slot, p.degree, p.bits, False)
        for q in (moved, Polynomial(cs)):
            assert check_symmetric(q).to_json_dict() == want_symmetric(cs)
            assert check_unimodal(q).to_json_dict() == want_unimodal(cs)
            assert check_lemma_range(60, q).to_json_dict() == want_lemma(60, cs)
            assert check_almost_unimodal(q, 3).to_json_dict() == want_almost_unimodal(cs, 3)

    def test_signed_rows_are_packed(self):
        for n, p in enumerate(main_rows(12, sign=-1)):
            cs = oracles.naive_product(oracles.borwein_factors(n))
            assert p.signed
            assert p.packed == packed_by_hand(cs, p.slot)
            assert check_sign_pattern(p, 3, "+--").to_json_dict() == want_sign_pattern(cs, [1, -1, -1])
            assert check_symmetric(p).to_json_dict() == want_symmetric(cs)
            assert check_unimodal(p).to_json_dict() == want_unimodal(cs)
            assert list(p.coeffs) == cs


signed_factors = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.integers(min_value=1, max_value=9)),
    min_size=0,
    max_size=12,
)


class TestSlotWidth:
    @given(signed_factors)
    def test_slot_stays_above_f_plus_one_bits(self, factors):
        rows = list(product_rows([f] for f in factors))
        for f, p in enumerate(rows, start=1):
            assert p.slot % 64 == 0
            assert p.slot > len(factors) + 1
            assert p.bits <= f + 1
            assert max(abs(c) for c in p.coeffs) < 2 ** p.bits
        assert all(p.slot == rows[0].slot for p in rows)

    def test_main_rows_167_use_384_bit_slots(self):
        assert next(main_rows(167)).slot == 384

    def test_a_list_row_grows_its_slots_when_a_factor_needs_them(self):
        factors = [(1, 1)] * 70 + [(-1, 2)] * 3
        p = Polynomial([1])
        assert p.slot == 64
        for sign, exponent in factors:
            p = mul_binomial(p, sign, exponent)
        assert p.slot == 128
        assert list(p.coeffs) == oracles.naive_product(factors)


# --- the rows end to end ----------------------------------------------------

class TestRowsEndToEnd:
    def test_family_rows_before_and_after_decoding(self):
        streams = {
            "main": (family_rows(ProductSpec.main(10)), oracles.main_factors),
            "odd": (family_rows(ProductSpec.odd(10)), oracles.odd_factors),
            "signed": (enumerate(main_rows(10, sign=-1)), oracles.borwein_factors),
        }
        for stream, factors in streams.values():
            for n, p in stream:
                cs = oracles.naive_product(factors(n))
                assert p.packed == packed_by_hand(cs, p.slot)
                assert p.degree == len(cs) - 1
                before = [check_symmetric(p).to_json_dict(), check_unimodal(p).to_json_dict()]
                assert before == [want_symmetric(cs), want_unimodal(cs)]
                assert list(p.coeffs) == cs
                after = [check_symmetric(p).to_json_dict(), check_unimodal(p).to_json_dict()]
                assert after == before

    def test_cli_matches_oracle_rows_and_checks(self, tmp_path):
        n_max = 40
        rows = oracle_main_rows(n_max)
        out = tmp_path / "rows.txt"
        assert cli.main(["expand", "--n", str(n_max), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [f"{m},{c}" for m, c in enumerate(rows[-1])]

        def results(*argv):
            report = tmp_path / "report.json"
            assert cli.main([*argv, "--n-max", str(n_max), "--report", str(report)]) == 0
            return json.loads(report.read_text())["results"]

        want = []
        for n, cs in enumerate(rows):
            want += [{**want_symmetric(cs), "n": n}, {**want_unimodal(cs), "n": n}]
        assert results("verify") == want
        assert results("lemma") == [want_lemma(n, rows[n]) for n in range(1, n_max + 1)]
        assert all(want_symmetric(cs)["passed"] and want_unimodal(cs)["passed"] for cs in rows)
        assert results("induction") == [
            {"kind": "induction", "passed": True, "n": n_max, "details": f"chain verified through n={n_max}"}
        ]


# --- geometric blocks: the quotient family's factors ------------------------

def block(sign, exponent, terms):
    """sum_{j<terms} (sign * q**exponent)**j as a coefficient list."""
    out = [0] * ((terms - 1) * exponent + 1)
    for j in range(terms):
        out[j * exponent] = sign**j
    return out


# Entries of 58..64 or 122..128 bits: a list row packs them in 64- or
# 128-bit slots with at most a few bits to spare.
boundary_entries = st.builds(
    lambda bits, low, sign: sign * ((1 << (bits - 1)) + low % (1 << (bits - 1))),
    st.sampled_from([58, 61, 62, 63, 64, 122, 125, 126, 127, 128]),
    st.integers(0, 2**128),
    st.sampled_from([1, -1]),
)
blocks = st.tuples(st.sampled_from([1, -1]), st.integers(1, 6), st.integers(2, 7))


class TestGeometricBlocks:
    @given(st.lists(entries, min_size=1, max_size=20), blocks)
    def test_block_matches_convolution(self, cs, factor):
        p = mul_binomial(Polynomial(cs), *factor)
        want = trimmed(oracles.convolve(trimmed(cs), block(*factor)))
        assert list(p.coeffs) == want
        assert p.packed == packed_by_hand(want, p.slot)
        assert max(abs(c) for c in want) < 2**p.bits < 2**p.slot

    @given(st.lists(boundary_entries, min_size=1, max_size=12), blocks)
    def test_list_row_near_a_slot_boundary(self, cs, factor):
        p = mul_binomial(Polynomial(cs), *factor)
        want = oracles.convolve(cs, block(*factor))
        assert p.packed == packed_by_hand(want, p.slot)
        assert list(p.coeffs) == want
        assert p.bits < p.slot

    def test_a_full_slot_is_repacked_for_the_whole_growth(self):
        cs = [2**62 - 1] * 10
        p = Polynomial(cs)
        assert (p.slot, p.bits) == (64, 62)
        q = mul_binomial(p, 1, 1, 5)  # three bits of growth: 65 > 64
        assert q.slot == 128
        assert list(q.coeffs) == oracles.convolve(cs, [1] * 5)

    def test_one_term_is_the_identity(self):
        assert mul_binomial(Polynomial([3, -1, 2]), -1, 4, 1).coeffs == (3, -1, 2)

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            mul_binomial(Polynomial([1]), 1, 1, 0)

    @given(st.lists(st.one_of(blocks, st.tuples(st.sampled_from([1, -1]), st.integers(1, 6))), max_size=10))
    def test_stream_of_mixed_factors(self, factors):
        rows = list(product_rows([f] for f in factors))
        full = [(*f, 2)[:3] for f in factors]  # a binomial is a block of two terms
        growth = sum((terms - 1).bit_length() for _, _, terms in full)
        want = [1]
        for f, p in zip(full, rows):
            want = oracles.convolve(want, block(*f))
            assert p._coeffs is None
            assert p.packed == packed_by_hand(want, p.slot)
            assert list(p.coeffs) == want
        assert all(p.slot == rows[0].slot > growth + 1 for p in rows)


class TestQuotientStream:
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 7])
    def test_rows_match_the_division_route_and_the_block_oracle(self, r):
        divided, want = Polynomial([1]), [1]
        for n, p in family_rows(ProductSpec.almkvist(r, 30)):
            divided = divide_exact(mul_binomial(divided, -1, r * n), Polynomial([1] + [0] * (n - 1) + [-1]))
            want = oracles.convolve(want, oracles.geometric_block(r, n))
            assert p._coeffs is None  # the stream never decodes a row
            assert p.packed == packed_by_hand(want, p.slot)
            assert p.degree == (r - 1) * n * (n + 1) // 2
            before = [check_symmetric(p).to_json_dict(), check_unimodal(p).to_json_dict()]
            assert before == [want_symmetric(want), want_unimodal(want)]
            assert list(divided.coeffs) == want
            assert list(p.coeffs) == want
            assert [check_symmetric(p).to_json_dict(), check_unimodal(p).to_json_dict()] == before
        assert want == oracles.gaussian_product(r, 30)

    def test_slot_is_fixed_from_the_block_growth(self):
        # Each block of r = 5 terms adds three bits: 90 bits for n = 30.
        rows = [p for _, p in family_rows(ProductSpec.almkvist(5, 30))]
        assert {p.slot for p in rows} == {128}
        assert rows[-1].bits == 91
