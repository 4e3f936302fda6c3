"""Rows packed in digit planes against the brute-force oracles.

A row's coefficients are packed in ``int64`` planes of 56-bit digits: a
coefficient's slot is its L digits, 56 L bits wide, every digit below
the top in [0, 2**56) and the top digit signed. Every structural check
reads the planes, never a coefficient list, so each report is held to
one built by ``tests/oracles.py`` from plain Python lists: on hypothesis
lists (negative and multi-digit entries included), on neighbours that
tie in their top digit, on a row-60 chain row with one coefficient
moved, and on the CLI's own output. The planes themselves are held to
digits cut from the oracle's integers by hand, and the carries and
borrows to entries at the digit edges, through single factors, chains,
streams and a factor of more than 128 terms. Rows built under a column
cap are held to the first columns of the full rows, and the dump
written from a row's lower half and its mirror to the full row's dump.
"""

import json
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qunimodal import cli, polynomials
from qunimodal.checks import (
    _steps,
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
    checked_rows,
    coeff,
    divide_exact,
    dump_lines,
    dump_product,
    family_rows,
    mul_binomial,
    product_rows,
    recurrence_step,
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


def pattern_text(pattern):
    """A pattern of +1/-1 entries as the text over '+-' that check_sign_pattern reads."""
    return "".join("+" if s > 0 else "-" for s in pattern)


def want_sign_pattern(cs, pattern):
    m = oracles.sign_violation(cs, pattern)
    if m is not None:
        return {"kind": "sign_pattern", "passed": False, "first_violation": m}
    return {"kind": "sign_pattern", "passed": True, "details": f"pattern={pattern_text(pattern)}"}


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


def shifted_sum(row, sign, exponent, terms=2):
    """row * sum_{j<terms} (sign q**exponent)**j on a plain list, one shifted add per term."""
    out = row + [0] * ((terms - 1) * exponent)
    for j in range(1, terms):
        for m, c in enumerate(row):
            out[m + j * exponent] += sign**j * c
    return out


@lru_cache(maxsize=None)
def row_60():
    return tuple(oracle_main_rows(60)[-1])


def limbs_by_hand(cs, count):
    """Plane k < count - 1 holds bits 56k..56k+55 of every c, and the top plane the rest, signed.

    Cut apart from the package.
    """
    mask = (1 << 56) - 1
    planes = [[(c >> (56 * k)) & mask for c in cs] for k in range(count - 1)]
    return np.array([*planes, [c >> (56 * (count - 1)) for c in cs]], dtype=np.int64)


def limb_count(p):
    return max(1, -(-p.bits // 56))


def assert_planes(p, cs):
    """``p`` holds exactly ``cs``, settled, in as many digits as its bound needs, read-only."""
    assert max(abs(c) for c in cs) < 2**p.bits
    assert p.limbs.dtype == np.int64 and not p.limbs.flags.writeable
    assert np.array_equal(p.limbs, limbs_by_hand(cs, limb_count(p)))


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
        got = check_sign_pattern(p, pattern_text(pattern)).to_json_dict()
        assert got == want_sign_pattern(trimmed(cs), pattern)

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=30),
        st.sampled_from([0, 1, 63, 64, 100, 200]),
        st.sampled_from([1, -1]),
    )
    def test_neighbours_tied_in_their_top_digit(self, xs, shift, sign):
        # Every entry shares its top digit, so no order is decided there:
        # each comparison reaches the lower digits.
        cs = [sign * (1 << 300) + (x << shift) for x in xs]
        p = Polynomial(cs)
        start = 56 * (limb_count(p) - 1)  # a slot's top digit starts here
        keys = {c >> start for c in cs}
        assert len(keys) == 1 and start > shift + 6
        assert_checks_match(p, cs)
        pattern = [sign, -sign]
        assert check_sign_pattern(p, pattern_text(pattern)).to_json_dict() == want_sign_pattern(cs, pattern)

    @given(
        st.sampled_from([1, -1]),
        st.integers(2, 2**20),
        st.integers(2, 4),
        st.lists(st.lists(st.sampled_from([0, 1, 2, 2**56 - 1]), min_size=3, max_size=3), min_size=2, max_size=30),
        st.data(),
    )
    def test_steps_of_neighbours_tied_in_their_top_digits(self, sign, top, count, lows, data):
        # Every entry shares its top digit; the digits below are drawn from
        # a few values, so pairs also tie in middle digits and are decided lower.
        cs = [sign * top * 2 ** (56 * (count - 1)) + sum(d << (56 * k) for k, d in enumerate(low[: count - 1]))
              for low in lows]
        p = Polynomial(cs)
        assert len(p.limbs) == count and len(set(p.limbs[-1].tolist())) == 1
        want = [(a > b) - (a < b) for b, a in zip(p.coeffs, p.coeffs[1:])]
        steps = _steps(p, 1, p.degree)
        assert steps.dtype == np.int8 and steps.tolist() == want
        lo = data.draw(st.integers(1, p.degree))
        hi = data.draw(st.integers(lo, p.degree))
        assert _steps(p, lo, hi).tolist() == want[lo - 1 : hi]

    def test_steps_of_chain_rows(self):
        # Rows 7, 27, ..., 167: one digit up to six.
        def check(n, p):
            if n % 20 != 7:
                return None
            cs = p.coeffs
            return _steps(p, 1, p.degree).tolist() == [(a > b) - (a < b) for b, a in zip(cs, cs[1:])]

        checked = [ok for ok in checked_rows(ProductSpec.main(167), check) if ok is not None]
        assert checked == [True] * 9

    @given(st.lists(entries, min_size=1, max_size=30), st.sampled_from([1, 3]), patterns)
    def test_reports_do_not_depend_on_the_limb_layout(self, cs, extra, pattern):
        # The same row in more digits than it needs, its bound at the top
        # of them and so far above its widest coefficient.
        p = Polynomial(cs)
        count = len(p.limbs) + extra
        q = Polynomial._of(limbs_by_hand(trimmed(cs), count), 56 * count)

        def reports(q):
            trims = range(min(3, q.degree // 2) + 1)
            return [check_symmetric(q), check_unimodal(q), check_sign_pattern(q, pattern_text(pattern)),
                    *(check_almost_unimodal(q, a) for a in trims)]

        assert len(q.limbs) == count
        assert q.coeffs == p.coeffs
        assert reports(q) == reports(p)

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
        # the chain's own limb layout, and the layout of a row built from a list
        limbs = p.limbs.copy()
        limbs[:, m] = limbs_by_hand([cs[m]], len(limbs))[:, 0]
        moved = Polynomial._of(limbs, p.bits)
        assert (p.bits, len(limbs)) == (122, 3) and len(Polynomial(cs).limbs) == 2
        for q in (moved, Polynomial(cs)):
            assert check_symmetric(q).to_json_dict() == want_symmetric(cs)
            assert check_unimodal(q).to_json_dict() == want_unimodal(cs)
            assert check_lemma_range(60, q).to_json_dict() == want_lemma(60, cs)
            assert check_almost_unimodal(q, 3).to_json_dict() == want_almost_unimodal(cs, 3)

    def test_signed_rows_are_packed(self):
        for n, p in family_rows(ProductSpec.signed(12)):
            cs = oracles.naive_product(oracles.borwein_factors(n))
            assert (p.limbs[-1] < 0).any()  # a negative coefficient's sign is its top digit's
            assert_planes(p, cs)
            assert check_sign_pattern(p, "+--").to_json_dict() == want_sign_pattern(cs, [1, -1, -1])
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
    def test_slot_stays_at_or_above_f_bits(self, factors):
        rows = list(product_rows([f] for f in factors))
        for f, p in enumerate(rows, start=1):
            assert p.bits == f  # the bit length of 2**f - 1
            # a negative coefficient, seen in the top digit, only after a negative factor
            assert not (p.limbs[-1] < 0).any() or any(sign < 0 for sign, _ in factors[:f])
            assert 56 * len(p.limbs) >= p.bits > 56 * (len(p.limbs) - 1)
            assert_planes(p, oracles.naive_product(factors[:f]))

    def test_main_rows_167_use_336_bit_slots(self):
        # Row n has 2(n+1) binomials: |a_m| <= 2**(2n+2) - 1, so 2n + 2 bits,
        # one more digit every 28 rows.
        rows = [(p.bits, len(p.limbs)) for _, p in family_rows(ProductSpec.main(167))]
        assert rows == [(2 * n + 2, (2 * n + 2 + 55) // 56) for n in range(168)]
        assert rows[-1] == (336, 6)

    def test_the_recurrence_chain_sizes_rows_as_the_stream(self):
        # recurrence_step multiplies by two binomials, one bit each, so the
        # chain from row 0 keeps the stream's bits and digit count.
        p, want = build_product(ProductSpec.main(0)), [row for _, row in family_rows(ProductSpec.main(60))]
        for n in range(1, 61):
            p = recurrence_step(p, n)
            assert (p.bits, len(p.limbs)) == (want[n].bits, len(want[n].limbs))
            assert np.array_equal(p.limbs, want[n].limbs)

    def test_a_list_row_grows_its_slots_when_a_factor_needs_them(self):
        factors = [(1, 1)] * 70 + [(-1, 2)] * 3
        p = Polynomial([1])
        assert len(p.limbs) == 1
        for f, (sign, exponent) in enumerate(factors, start=1):
            p = mul_binomial(p, sign, exponent)
            assert len(p.limbs) == (1 if f < 56 else 2)
        assert p.bits == 74 and (p.limbs[-1] < 0).any()
        assert_planes(p, oracles.naive_product(factors))

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.one_of(st.tuples(st.sampled_from([1, -1]), st.integers(1, 3)),
                              st.tuples(st.sampled_from([1, -1]), st.integers(1, 3), st.integers(1, 130))),
                    min_size=1, max_size=5).filter(lambda fs: any((*f, 2)[2] >= 2 for f in fs)))
    def test_bits_follow_the_largest_coefficient(self, factors):
        # Once a factor has two terms, a_0 = 1 and the leading +-1 are two
        # of the |a_m| that sum to at most the product T of the term
        # counts, so every |a_m| <= T - 1.
        want, bound = [1], 1
        for (sign, exponent, terms), p in zip(((*f, 2)[:3] for f in factors), product_rows([f] for f in factors)):
            want, bound = shifted_sum(want, sign, exponent, terms), bound * terms
            assert max(map(abs, want)) <= max(1, bound - 1)
            bits = max(1, (bound - 1).bit_length())
            assert (p.bits, len(p.limbs)) == (bits, max(1, -(-bits // 56)))
            assert_planes(p, want)
        assert max(map(abs, want)) <= bound - 1


class TestTightBound:
    def test_almkvist_r3_rows_fit_one_limb(self):
        # 3**35 < 2**56: the block product bounds the rows of almkvist --r 3
        # by one digit through n = 35 (the sum of ceil(log2 3) through n = 28).
        rows = [(n, p) for n, p in family_rows(ProductSpec.almkvist(3, 40))]
        assert all(p.bits == (3**n).bit_length() and len(p.limbs) == (1 if n <= 35 else 2) for n, p in rows)
        assert rows[-1][1].bits == 64
        assert max(rows[-1][1].coeffs).bit_length() == 56

    def test_almkvist_r7_n150_takes_eight_digits(self):
        p = build_product(ProductSpec.almkvist(7, 150))
        assert p.bits == (7**150).bit_length() == 422
        assert len(p.limbs) == 8  # nine from the sum of ceil(log2 7), 451 bits

    def test_mul_binomial_bounds_by_terms_times_the_old_bound(self):
        p = mul_binomial(Polynomial([3, 1]), -1, 2, 3)  # |a_m| <= 3 * 3
        assert p.bits == 4 and (p.limbs[-1] < 0).any()
        assert_planes(p, oracles.convolve([3, 1], [1, 0, -1, 0, 1]))


# --- the rows end to end ----------------------------------------------------

class TestRowsEndToEnd:
    @pytest.mark.parametrize("spec", [
        ProductSpec.main(167),
        ProductSpec.signed(150),
        ProductSpec.odd(60),
        ProductSpec.almkvist(3, 40),
        ProductSpec.almkvist(130, 12),  # factors of more than 128 terms
        ProductSpec.general([(1, 1), (-1, 2), (1, 3), (1, 1), (-1, 5), (1, 4), (-1, 1)]),
    ], ids=["main", "signed", "odd", "almkvist3", "almkvist130", "general"])
    def test_build_product_is_the_last_streamed_row(self, spec):
        # One group of every factor against a settle per row: the same planes.
        for _, last in family_rows(spec):
            pass
        p = build_product(spec)
        assert (p.bits, p.limbs.shape) == (last.bits, last.limbs.shape)
        assert np.array_equal(p.limbs, last.limbs)

    def test_family_rows_before_and_after_decoding(self):
        streams = {
            "main": (family_rows(ProductSpec.main(10)), oracles.main_factors),
            "odd": (family_rows(ProductSpec.odd(10)), oracles.odd_factors),
            "signed": (family_rows(ProductSpec.signed(10)), oracles.borwein_factors),
        }
        for stream, factors in streams.values():
            for n, p in stream:
                cs = oracles.naive_product(factors(n))
                assert_planes(p, cs)
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


# Entries of 58..64 or 122..128 bits: a list row packs them in two or
# three digits, a few bits above a digit edge.
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
        assert_planes(p, want)

    @given(st.lists(boundary_entries, min_size=1, max_size=12), blocks)
    def test_list_row_near_a_slot_boundary(self, cs, factor):
        p = mul_binomial(Polynomial(cs), *factor)
        want = oracles.convolve(cs, block(*factor))
        assert_planes(p, want)
        assert list(p.coeffs) == want

    def test_a_full_limb_grows_for_the_whole_growth(self):
        cs = [2**62 - 1] * 10
        p = Polynomial(cs)
        assert (len(p.limbs), p.bits) == (2, 62)
        q = mul_binomial(p, 1, 1, 5)  # bound (2**62 - 1) * 5: 65 bits
        assert (len(q.limbs), q.bits) == (2, 65)
        assert_planes(q, oracles.convolve(cs, [1] * 5))
        cs = [2**54 - 1] * 10  # a full digit but two bits
        p = Polynomial(cs)
        assert (len(p.limbs), p.bits) == (1, 54)
        q = mul_binomial(p, 1, 1, 5)  # bound (2**54 - 1) * 5: 57 bits
        assert (len(q.limbs), q.bits) == (2, 57)
        assert_planes(q, oracles.convolve(cs, [1] * 5))

    def test_one_term_is_the_identity(self):
        assert mul_binomial(Polynomial([3, -1, 2]), -1, 4, 1).coeffs == (3, -1, 2)

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            mul_binomial(Polynomial([1]), 1, 1, 0)

    @given(st.lists(st.one_of(blocks, st.tuples(st.sampled_from([1, -1]), st.integers(1, 6))), max_size=10))
    def test_stream_of_mixed_factors(self, factors):
        rows = list(product_rows([f] for f in factors))
        full = [(*f, 2)[:3] for f in factors]  # a binomial is a block of two terms
        want, bound = [1], 1
        for f, p in zip(full, rows):
            want, bound = oracles.convolve(want, block(*f)), bound * f[2]
            assert p._coeffs is None  # the stream never decodes a row
            assert p.bits == max(1, (bound - 1).bit_length())
            assert_planes(p, want)
            assert list(p.coeffs) == want


class TestQuotientStream:
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 7])
    def test_rows_match_the_division_route_and_the_block_oracle(self, r):
        divided, want = Polynomial([1]), [1]
        for n, p in family_rows(ProductSpec.almkvist(r, 30)):
            divided = divide_exact(mul_binomial(divided, -1, r * n), Polynomial([1] + [0] * (n - 1) + [-1]))
            want = oracles.convolve(want, oracles.geometric_block(r, n))
            assert p._coeffs is None  # the stream never decodes a row
            assert_planes(p, want)
            assert p.degree == (r - 1) * n * (n + 1) // 2
            before = [check_symmetric(p).to_json_dict(), check_unimodal(p).to_json_dict()]
            assert before == [want_symmetric(want), want_unimodal(want)]
            assert list(divided.coeffs) == want
            assert list(p.coeffs) == want
            assert [check_symmetric(p).to_json_dict(), check_unimodal(p).to_json_dict()] == before
        assert want == oracles.gaussian_product(r, 30)

    def test_bits_follow_the_block_product(self):
        # Blocks of r = 5 terms bound row n by 5**n: 70 bits at n = 30, where
        # three bits a block gave 91.
        rows = [(n, p) for n, p in family_rows(ProductSpec.almkvist(5, 30))]
        assert [p.bits for _, p in rows] == [(5**n).bit_length() for n, _ in rows]
        assert [len(p.limbs) for _, p in rows] == [1] * 24 + [2] * 6
        assert rows[-1][1].bits == 70


# --- held rows, read-only planes, carries across limbs ----------------------

class TestHeldRows:
    def test_rows_held_past_the_next_step_equal_the_oracle(self):
        held = list(family_rows(ProductSpec.main(30)))
        assert [list(p.coeffs) for _, p in held] == oracle_main_rows(30)
        held = list(family_rows(ProductSpec.signed(20)))
        assert [list(p.coeffs) for _, p in held] == oracle_main_rows(20, sign=-1)
        for n, p in list(family_rows(ProductSpec.odd(12))):
            assert_planes(p, oracles.naive_product(oracles.odd_factors(n)))
        want = [1]
        for n, p in list(family_rows(ProductSpec.almkvist(4, 12))):
            want = oracles.convolve(want, oracles.geometric_block(4, n))
            assert_planes(p, want)
        general = [(-1, 1), (1, 1), (1, 3), (-1, 4), (1, 2), (-1, 5)]
        ((n, p),) = family_rows(ProductSpec.general(general))
        assert n is None
        assert_planes(p, oracles.naive_product(general))

    def test_groups_of_many_factors_share_no_planes(self):
        # Groups of three and four factors: the product before the last
        # factor goes to the scratch, and every held row has planes of its own.
        groups = [[(1, 1), (-1, 2), (1, 3)], [(1, 4), (1, 5, 3), (-1, 6), (1, 7)], [], [(1, 8)]]
        held = list(product_rows(groups))
        want, factors = [], []
        for group in groups:
            factors += group
            cs = [1]
            for f in factors:
                cs = oracles.convolve(cs, block(*(*f, 2)[:3]))
            want.append(cs)
        for p, cs in zip(held, want):
            assert_planes(p, cs)
        assert held[2] == held[1]
        bases = [p.limbs.base if p.limbs.base is not None else p.limbs for p in held]
        assert len({id(b) for b in bases}) == 3  # the empty group repeats its row

    def test_a_held_row_survives_later_rows(self):
        rows = family_rows(ProductSpec.main(30))
        for _ in range(10):
            next(rows)
        _, held = next(rows)
        for _ in range(20):
            next(rows)
        assert list(held.coeffs) == oracle_main_rows(10)[10]

    def test_a_held_plane_view_survives_later_rows(self):
        rows = family_rows(ProductSpec.main(40))
        for _ in range(5):
            next(rows)
        _, p = next(rows)
        v = p.limbs[0]
        want = v.copy()
        del p
        for _ in range(20):
            next(rows)
        assert np.array_equal(v, want)

    @pytest.mark.parametrize("stream", ["main", "signed", "family", "odd", "almkvist"])
    def test_rows_the_consumer_drops_share_one_buffer(self, stream):
        # [main] and [signed] read product_rows itself, [family] the family_rows
        # stream over it. Groups of one factor (odd, almkvist) grow their rows
        # in the one buffer too.
        def main_groups(sign):
            return [((sign, 3 * k + 1), (sign, 3 * k + 2)) for k in range(31)]

        rows = {
            "main": lambda: product_rows(main_groups(1)),
            "signed": lambda: product_rows(main_groups(-1)),
            "family": lambda: family_rows(ProductSpec.main(30)),
            "odd": lambda: family_rows(ProductSpec.odd(30)),
            "almkvist": lambda: family_rows(ProductSpec.almkvist(4, 31)),
        }[stream]()
        addresses, coefficients = [], []
        for p in rows:
            if stream in ("family", "odd", "almkvist"):
                _, p = p
            # The data pointer only: holding ``p.limbs.base`` would keep the buffer in use.
            addresses.append(p.limbs.__array_interface__["data"][0])
            coefficients.append(list(p.coeffs))
            del p
        if stream == "odd":
            assert coefficients == [oracles.naive_product(oracles.odd_factors(n)) for n in range(31)]
        elif stream == "almkvist":
            assert coefficients == [oracles.gaussian_product(4, n) for n in range(1, 32)]
        else:
            assert coefficients == oracle_main_rows(30, sign=-1 if stream == "signed" else 1)
        assert len(addresses) == 31 and len(set(addresses[1:])) == 1

    @pytest.mark.parametrize("stream", ["main", "signed", "almkvist"])
    def test_the_stream_holds_one_row(self, stream):
        # Dropped rows: the stream's buffer is the last row's size, and its
        # scratch is a block of one plane.
        spec = {
            "main": ProductSpec.main(167),
            "signed": ProductSpec.signed(150),
            "almkvist": ProductSpec.almkvist(5, 60),
        }[stream]
        tracemalloc.start()
        try:
            for _, p in family_rows(spec):
                planes, nbytes = len(p.limbs), p.limbs.nbytes
                del p
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * nbytes
        if stream == "main":  # six digits of 84,673 columns: 3.9 MiB
            assert planes == 6 and peak < 4.4 * 2**20

    def test_the_dump_holds_half_a_row(self):
        # Six digits of the 42,337 columns below the cap: 1.9 MiB; the
        # whole row and its dump (build_product, dump_lines) peak at 4.4 MiB.
        tracemalloc.start()
        try:
            lines = sum(text.count("\n") for text in dump_product(ProductSpec.main(167)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == 84673 and peak < 2.6 * 2**20

    @pytest.mark.parametrize("stream, grows_at", [
        ("main", [28, 56]),
        ("signed", [28, 56]),
        ("almkvist", [25, 49]),
    ], ids=["main", "signed", "almkvist"])
    def test_rows_where_the_limbs_grow_equal_the_oracle(self, stream, grows_at):
        # The consumer holds every third row and drops the rest, so a row
        # grows in the stream's buffer after a dropped row and in a fresh
        # copy after a held one, where a digit count grows too.
        if stream == "almkvist":
            spec, want = ProductSpec.almkvist(5, 57), [[1]]
            for k in range(1, 58):
                want.append(shifted_sum(want[-1], 1, k, 5))
        else:
            sign = -1 if stream == "signed" else 1
            spec, want = ProductSpec.signed(64) if sign < 0 else ProductSpec.main(64), []
            for k in range(65):
                want.append(shifted_sum(shifted_sum(want[-1] if want else [1], sign, 3 * k + 1), sign, 3 * k + 2))
        held, counts = {}, {}
        for n, p in family_rows(spec):
            assert list(p.coeffs) == want[n]
            counts[n] = len(p.limbs)
            if n % 3 == 0:
                held[n] = p
            del p
        assert [n for n in counts if n - 1 in counts and counts[n] > counts[n - 1]] == grows_at
        for n, p in held.items():
            assert_planes(p, want[n])

    @pytest.mark.parametrize("argv", [
        ["verify", "--n-max", "30"],
        ["lemma", "--n-max", "30"],
        ["induction", "--n-max", "30"],
        ["borwein", "--n-max", "30"],
        ["expand", "--n", "30"],
    ], ids=lambda argv: argv[0])
    def test_commands_drop_their_rows(self, argv, tmp_path, monkeypatch):
        addresses = []

        def recorded(*args):
            out = times(*args)
            addresses.append(out.__array_interface__["data"][0])
            return out

        times = polynomials._times
        monkeypatch.setattr(polynomials, "_times", recorded)
        flag = "--out" if argv[0] == "expand" else "--report"
        assert cli.main([*argv, flag, str(tmp_path / "out")]) == 0
        finals = addresses[1::2]  # each main row is a group of two factors
        assert len(finals) == 31 and len(set(finals[1:])) == 1

    def test_yielded_planes_are_not_writeable(self):
        specs = ProductSpec.main(3), ProductSpec.signed(3), ProductSpec.almkvist(3, 4)
        rows = [p for spec in specs for _, p in family_rows(spec)]
        rows += [mul_binomial(rows[-1], -1, 2, 4), Polynomial([5, -2**70])]
        for p in rows:
            assert not p.limbs.flags.writeable
            with pytest.raises(ValueError):
                p.limbs[0, 0] = 7


def edge(k, offset):
    """2**(64k) + offset: with offset -1, 0 or 1, an entry at the edge of a 64-bit limb k."""
    return (1 << (64 * k)) + offset


def digit_edge(k, offset):
    """2**(56k) + offset: with a small offset, an entry at the edge of digit k."""
    return (1 << (56 * k)) + offset


# Entries at +-2**(56k) and a few either side, which fill a row's top
# digit or just pass it, so the digits carry or borrow at every step;
# entries at 2**(64k) - 1, -2**(64k) and their neighbours, runs of zeros
# or ones that straddle the digits; and +-1.
limb_edges = st.one_of(
    st.builds(lambda k, offset, sign: sign * digit_edge(k, offset),
              st.integers(1, 3), st.integers(-3, 3), st.sampled_from([1, -1])),
    st.builds(edge, st.integers(1, 3), st.sampled_from([-1, 0, 1])),
    st.builds(lambda k, offset: -edge(k, offset), st.integers(1, 3), st.sampled_from([-1, 0, 1])),
    st.sampled_from([1, -1, 0]),
)
factors_or_blocks = st.one_of(blocks, st.tuples(st.sampled_from([1, -1]), st.integers(1, 4)))


class TestCarries:
    @given(st.lists(limb_edges, min_size=1, max_size=12), factors_or_blocks)
    def test_limb_edges_times_one_factor(self, cs, factor):
        p = mul_binomial(Polynomial(cs), *factor)
        want = trimmed(oracles.convolve(trimmed(cs), block(*(*factor, 2)[:3])))
        assert list(p.coeffs) == want
        assert_planes(p, want)

    @given(st.lists(limb_edges, min_size=1, max_size=8), st.lists(factors_or_blocks, min_size=2, max_size=4))
    def test_limb_edges_through_a_chain(self, cs, factors):
        p, want = Polynomial(cs), trimmed(cs)
        for factor in factors:
            p = mul_binomial(p, *factor)
            want = trimmed(oracles.convolve(want, block(*(*factor, 2)[:3])))
            if want != [0]:
                assert_planes(p, want)
        assert list(p.coeffs) == want

    @given(st.lists(limb_edges, min_size=1, max_size=12), factors_or_blocks)
    def test_mul_binomial_leaves_its_row_unchanged(self, cs, factor):
        # A row built from a list, and a row that is a view of a stream's buffer.
        *_, (_, streamed) = family_rows(ProductSpec.signed(12))
        for p in (Polynomial(cs), streamed):
            before = p.limbs.copy()
            q = mul_binomial(p, *factor)
            assert np.array_equal(p.limbs, before)
            assert list(q.coeffs) == trimmed(oracles.convolve(list(p.coeffs), block(*(*factor, 2)[:3])))

    def test_a_carry_runs_through_every_limb(self):
        top = 2 ** (64 * 3) - 1  # three limbs of all ones, one below a fourth
        p = mul_binomial(Polynomial([top, top]), 1, 1)
        assert list(p.coeffs) == [top, 2 * top, top]
        q = mul_binomial(Polynomial([-(2**192), 1]), -1, 1)  # a borrow through every limb
        assert list(q.coeffs) == [-(2**192), 2**192 + 1, -1]
        top = 2 ** (56 * 3) - 1  # three digits of all ones, one below a fourth
        p = mul_binomial(Polynomial([top, top]), 1, 1)
        assert_planes(p, [top, 2 * top, top])
        q = mul_binomial(Polynomial([-(2**168), 1]), -1, 1)  # a borrow through every digit
        assert_planes(q, [-(2**168), 2**168 + 1, -1])


stream_groups = st.lists(
    st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 3), st.integers(2, 7)), min_size=1, max_size=6),
    min_size=10,
    max_size=25,
)


class TestDigitEdges:
    @settings(deadline=None, max_examples=40)
    @given(stream_groups)
    def test_stream_rows_across_digit_edges(self, groups):
        # Dozens of blocks of up to 7 terms: bounds past 2**56 and often
        # 2**112, and groups whose digits would pass 128 copies settle
        # between their factors.
        want = [1]
        for group, p in zip(groups, product_rows(groups)):
            for factor in group:
                want = oracles.convolve(want, block(*factor))
            assert_planes(p, want)

    def test_a_negative_top_digit_grows_a_digit(self):
        # (1 - q)**f keeps its negative coefficients in its one digit
        # through f = 56; the 57th factor carries them into a second.
        rows, want = list(product_rows([(-1, 1)] for _ in range(58))), [1]
        for p in rows:
            want = oracles.convolve(want, [1, -1])
            assert_planes(p, want)
        assert [len(p.limbs) for p in rows[54:58]] == [1, 1, 2, 2]
        assert (rows[55].limbs[0] < 0).any()
        cs = [-(2**56) + 1, 2**56 - 1, -3]  # one digit, the first at its floor
        p = Polynomial(cs)
        assert len(p.limbs) == 1
        for factor in [(1, 1), (-1, 2), (1, 1, 3)]:
            q = mul_binomial(p, *factor)
            assert len(q.limbs) == 2
            assert_planes(q, oracles.convolve(cs, block(*(*factor, 2)[:3])))

    def test_a_factor_of_more_than_128_terms(self):
        # Each term settles its destination: 130 copies of a full digit
        # would pass 2**63 in the row built from a list.
        cs = [2**112 - 1] * 130 + [-(2**112) + 1] * 3
        for factor in [(1, 1, 130), (-1, 1, 131), (1, 2, 129)]:
            p = mul_binomial(Polynomial(cs), *factor)
            assert_planes(p, oracles.convolve(cs, block(*factor)))
        want = [1]
        for n, p in family_rows(ProductSpec.almkvist(130, 4)):
            want = oracles.convolve(want, oracles.geometric_block(130, n))
            assert_planes(p, want)


class TestPlaneReads:
    @given(st.lists(entries, min_size=1, max_size=20))
    def test_coeff_and_repr_read_the_planes(self, cs):
        p = Polynomial(cs)
        want = trimmed(cs)
        assert [coeff(p, m) for m in range(-1, len(want) + 1)] == [0, *want, 0]
        assert repr(p).startswith(f"Polynomial(degree={len(want) - 1}, coeffs=[{', '.join(map(str, want[:6]))}")
        assert p._coeffs is None

    def test_equal_rows_in_different_layouts(self):
        # Row 31 carries a 64-bit bound (two digits); its coefficients fit one.
        *_, (_, row) = family_rows(ProductSpec.main(31))
        plain = Polynomial(row.coeffs)
        assert (len(row.limbs), len(plain.limbs)) == (2, 1)
        assert row == plain and hash(row) == hash(plain)
        # (1 + q)(1 - q + q**2) = 1 + q**3: a signed row with no negative coefficient
        (signed,) = product_rows([[(1, 1), (-1, 1, 3)]])
        assert signed == Polynomial([1, 0, 0, 1])
        assert hash(signed) == hash(Polynomial([1, 0, 0, 1]))
        moved = list(row.coeffs)
        moved[400] += 1
        assert row != Polynomial(moved)
        assert Polynomial([1, 2]) != Polynomial([1, 2, 3])
        assert Polynomial([-1]) != Polynomial([2**64 - 1])
        assert Polynomial([-1]) != Polynomial([2**56 - 1])  # one digit: the top is signed

    def test_dump_crosses_its_blocks(self):
        # 5,044 two-digit coefficients of both signs: five blocks of the dump
        *_, (_, p) = family_rows(ProductSpec.signed(40))
        cs = oracle_main_rows(40, sign=-1)[-1]
        assert (len(cs), len(p.limbs), min(cs) < 0) == (5044, 2, True)
        assert list(dump_lines(p)) == [f"{m},{c}" for m, c in enumerate(cs)]
        assert p._coeffs is None


# --- the lower half of a row and its mirror ---------------------------------

def _general_lists(count):
    rng = random.Random(29)
    return [[(rng.choice([1, -1]), rng.randint(1, 40)) for _ in range(rng.randint(1, 14))] for _ in range(count)]


MIRROR_SPECS = [
    *(ProductSpec.main(n) for n in (0, 1, 2, 5, 26, 27, 28, 60, 167)),
    *(ProductSpec.odd(n) for n in (0, 1, 7, 60)),
    *(ProductSpec.almkvist(r, n) for r, n in ((3, 40), (2, 13), (130, 12), (7, 20))),
    *(ProductSpec.signed(n) for n in (0, 3, 50)),
    *(ProductSpec.general(factors) for factors in _general_lists(40)),
]


def full_dump(spec):
    return "".join(f"{line}\n" for line in dump_lines(build_product(spec)))


class TestMirroredDump:
    def test_the_specs_cover_both_mirror_signs(self):
        minus = [sum(s < 0 for s, _ in spec.factors) % 2 for spec in MIRROR_SPECS if spec.family == "general"]
        assert 0 < sum(minus) < len(minus)

    @pytest.mark.parametrize("spec", MIRROR_SPECS, ids=lambda spec: f"{spec.family}-{spec.n}-{spec.r}")
    def test_dump_product_is_the_full_dump(self, spec):
        # Main rows 27 and 28 straddle a new digit; odd 0 is the degree-0 row [1].
        assert "".join(dump_product(spec)) == full_dump(spec)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 30)), min_size=1, max_size=12))
    @example([(1, 1)])
    @example([(-1, 1)])
    @example([(-1, 2), (1, 2)])
    @example([(-1, 1), (-1, 3)])
    def test_general_lists_of_either_sign(self, factors):
        # Degree 1 is a cap of one column and one mirrored column.
        assert "".join(dump_product(ProductSpec.general(factors))) == full_dump(ProductSpec.general(factors))

    def test_the_row_is_built_before_any_text(self, monkeypatch):
        # So expand opens no output file for a row too large to allocate.
        calls = []

        def counted(*args):
            calls.append(args)
            return times(*args)

        times = polynomials._times
        monkeypatch.setattr(polynomials, "_times", counted)
        blocks = dump_product(ProductSpec.main(3))
        assert len(calls) == 8
        assert full_dump(ProductSpec.main(3)).startswith(next(blocks))
        with pytest.raises(ValueError, match="cap"):
            next(product_rows([[(1, 1)]], cap=0))


class TestCappedRows:
    @settings(deadline=None, max_examples=40)
    @given(stream_groups, st.integers(1, 300))
    def test_capped_rows_are_the_first_columns(self, groups, cap):
        for full, capped in zip(product_rows(groups), product_rows(groups, cap)):
            assert capped.bits == full.bits and not capped.limbs.flags.writeable
            assert np.array_equal(capped.limbs, full.limbs[:, :cap])

    @pytest.mark.parametrize("cap", [1, 2, 131, 400, 1000, 5000])
    def test_blocks_of_more_than_128_terms(self, cap):
        # Each of the 129 later terms of a 130-term block settles its
        # destination; the last rows take two digits.
        groups = [[(1, k, 130)] for k in range(1, 10)] + [[(-1, 3), (1, 5, 130)]]
        for full, capped in zip(product_rows(groups), product_rows(groups, cap)):
            assert len(capped.limbs) == len(full.limbs)
            assert np.array_equal(capped.limbs, full.limbs[:, :cap])
        assert len(capped.limbs) == 2

    def test_the_capped_main_chain(self):
        # Rows 0..60 of the main family, the later ones wider than the cap and held past it.
        groups = polynomials._family_groups(ProductSpec.main(60))
        capped = list(product_rows(groups, 2000))
        for (_, full), row in zip(family_rows(ProductSpec.main(60)), capped):
            assert np.array_equal(row.limbs, full.limbs[:, :2000])
