import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qunimodal import checks
from qunimodal.checks import (
    CheckReport,
    check_almost_unimodal,
    check_lemma_range,
    check_sign_pattern,
    check_symmetric,
    check_unimodal,
    replay_induction,
)
from qunimodal.errors import DegreeMismatch
from qunimodal.polynomials import Polynomial, ProductSpec, build_product

B1 = [1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1]

coeff_lists = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=24)


def unimodal_lists():
    """Generate rise-then-fall sequences directly."""
    return st.tuples(
        st.lists(st.integers(0, 9), max_size=10),
        st.integers(0, 9),
        st.lists(st.integers(0, 9), max_size=10),
    ).map(lambda t: sorted(t[0]) + [max(t[1], max(t[0], default=0), max(t[2], default=0))] + sorted(t[2], reverse=True))


class TestSymmetric:
    def test_passes(self):
        assert check_symmetric(Polynomial([1, 1, 1, 1])).passed
        assert check_symmetric(Polynomial([1, 2, 1])).passed

    def test_first_violation(self):
        rep = check_symmetric(Polynomial([1, 2, 3]))
        assert not rep.passed
        assert rep.first_violation == 0

    def test_to_json_omits_unset_fields(self):
        rep = check_symmetric(Polynomial([1, 1]))
        data = rep.to_json_dict()
        assert data == {"kind": "symmetric", "passed": True}

    @given(coeff_lists)
    def test_agrees_with_reversal(self, cs):
        p = Polynomial(cs)
        assert check_symmetric(p).passed == (list(p.coeffs) == list(p.coeffs)[::-1])


class TestUnimodal:
    def test_mode_plateau(self):
        rep = check_unimodal(Polynomial(B1))
        assert rep.passed
        assert (rep.mode_lo, rep.mode_hi) == (5, 7)

    def test_first_rise_after_fall(self):
        rep = check_unimodal(Polynomial([1, 2, 1, 2]))
        assert not rep.passed
        assert rep.first_violation == 3
        assert rep.mode_lo is None

    def test_constant_is_unimodal(self):
        rep = check_unimodal(Polynomial([5]))
        assert rep.passed
        assert (rep.mode_lo, rep.mode_hi) == (0, 0)

    @given(coeff_lists)
    def test_agrees_with_brute_force(self, cs):
        p = Polynomial(cs)
        assert check_unimodal(p).passed == oracles.is_unimodal(list(p.coeffs))

    @given(coeff_lists)
    def test_mode_really_is_the_max(self, cs):
        p = Polynomial(cs)
        rep = check_unimodal(p)
        if rep.passed:
            peak = max(p.coeffs)
            assert p.coeffs[rep.mode_lo] == peak
            assert p.coeffs[rep.mode_hi] == peak
            assert all(c < peak for c in p.coeffs[: rep.mode_lo])
            assert all(c < peak for c in p.coeffs[rep.mode_hi + 1 :])

    @given(coeff_lists)
    def test_symmetric_unimodal_mode_is_centered(self, cs):
        cs = cs + cs[::-1]
        p = Polynomial(cs)
        rep = check_unimodal(p)
        if rep.passed and list(p.coeffs) == list(p.coeffs)[::-1]:
            n = p.degree
            assert rep.mode_lo <= (n + 1) // 2
            assert rep.mode_hi >= n // 2


class TestLemmaRange:
    def test_passes_on_small_rows(self):
        for n in range(1, 7):
            p = build_product(ProductSpec.main(n))
            rep = check_lemma_range(n, p)
            assert rep.passed
            assert rep.n == n

    def test_window_bounds_are_inclusive(self):
        rep = check_lemma_range(2, build_product(ProductSpec.main(2)))
        assert "window=[6,13]" in rep.details

    def test_detects_a_dip(self):
        p = build_product(ProductSpec.main(2))
        cs = list(p.coeffs)
        cs[12] = cs[11] - 1  # dent the window
        rep = check_lemma_range(2, Polynomial(cs))
        assert not rep.passed
        assert rep.first_violation == 12

    def test_degree_gate(self):
        with pytest.raises(DegreeMismatch):
            check_lemma_range(3, build_product(ProductSpec.main(2)))
        with pytest.raises(ValueError):
            check_lemma_range(0, build_product(ProductSpec.main(0)))


class TestReplayInduction:
    def test_small_chain(self):
        rep = replay_induction(6)
        assert rep.passed
        assert rep.n == 6

    def test_replay_matches_direct_checks(self):
        # The induction decomposes unimodality into carried monotonicity
        # plus the central window; both routes must agree on the result.
        assert replay_induction(8).passed
        for n in range(9):
            p = build_product(ProductSpec.main(n))
            assert check_symmetric(p).passed
            assert check_unimodal(p).passed


def dented(n, m, mirror=True):
    """Row n of the main chain with a_m set one below a_{m-1}, and a_{d-m} with it."""
    cs = list(build_product(ProductSpec.main(n)).coeffs)
    cs[m] = cs[m - 1] - 1
    if mirror:
        cs[-1 - m] = cs[m]
    return Polynomial(cs)


class TestInductionFailures:
    # Each report names the first failing index and the segment it falls in:
    # carried monotonicity on 1..floor(3n^2/2), the window up to floor(3(n+1)^2/2).
    @pytest.mark.parametrize("n,m,mirror,want", [
        (4, 5, False, {"first_violation": 5, "details": "symmetry broke at n=4"}),
        (5, 10, True, {"first_violation": 10, "details": "carried monotonicity broke at n=5, m=10"}),
        (5, 45, True, {"first_violation": 45, "details": "central window broke at n=5, m=45"}),
        (20, 600, True, {"first_violation": 600, "details": "carried monotonicity broke at n=20, m=600"}),
        (21, 661, True, {"first_violation": 661, "details": "carried monotonicity broke at n=21, m=661"}),
        (21, 662, True, {"first_violation": 662, "details": "central window broke at n=21, m=662"}),
    ])
    def test_report_of_a_changed_row(self, n, m, mirror, want):
        rep = checks._induction_step(n, dented(n, m, mirror))
        assert rep.to_json_dict() == {"kind": "induction", "passed": False, "n": n, **want}

    @pytest.mark.parametrize("n", range(9))
    def test_every_dip_is_named_by_its_segment(self, n):
        # Row 0 inherits nothing: all of 1..1 is its window.
        carried, hi = 3 * n * n // 2, 3 * (n + 1) ** 2 // 2
        assert checks._induction_step(n, build_product(ProductSpec.main(n))) is None
        for m in range(1, hi + 1):
            segment = "carried monotonicity" if m <= carried else "central window"
            rep = checks._induction_step(n, dented(n, m))
            assert (rep.first_violation, rep.details) == (m, f"{segment} broke at n={n}, m={m}")

    def test_replay_scans_each_row_once(self, monkeypatch):
        calls = {"_steps": 0, "check_lemma_range": 0}

        def counted(name):
            inner = getattr(checks, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(checks, name, counted(name))
        assert replay_induction(20).passed
        assert calls == {"_steps": 21, "check_lemma_range": 0}


class TestSignPattern:
    def test_signed_main_row(self):
        rep = check_sign_pattern(Polynomial([1, -1, -1, 1, -1, 0, 2, 0, -1, 1, -1, -1, 1]), "+--")
        assert rep.passed

    def test_zero_matches_either_sign(self):
        # q^2 has zeros at slots wanting both signs and +1 at a plus slot.
        assert check_sign_pattern(Polynomial([0, 0, 1]), "+-").passed

    def test_first_violation_index(self):
        rep = check_sign_pattern(Polynomial([1, 1]), "+-")
        assert not rep.passed
        assert rep.first_violation == 1

    def test_rejects_bad_patterns(self):
        with pytest.raises(ValueError):
            check_sign_pattern(Polynomial([1]), "+?")
        with pytest.raises(ValueError):
            check_sign_pattern(Polynomial([1]), [1, 0])
        with pytest.raises(ValueError):
            check_sign_pattern(Polynomial([1]), [1, -1])
        with pytest.raises(ValueError):
            check_sign_pattern(Polynomial([1]), "")


class TestAlmostUnimodal:
    def test_odd_parts_row_27(self):
        p = Polynomial(oracles.naive_product(oracles.odd_factors(27)))
        strict = check_almost_unimodal(p, 0)
        assert not strict.passed
        assert strict.first_violation == 3
        relaxed = check_almost_unimodal(p, 3)
        assert relaxed.passed

    def test_trim_zero_equals_plain_check(self):
        p = Polynomial([1, 3, 1, 0, 0])
        assert check_almost_unimodal(p, 0).passed == check_unimodal(p).passed

    @given(coeff_lists)
    def test_trim_zero_agrees_everywhere(self, cs):
        p = Polynomial(cs)
        plain = check_unimodal(p)
        trimmed = check_almost_unimodal(p, 0)
        assert plain.passed == trimmed.passed
        assert plain.first_violation == trimmed.first_violation
        assert plain.mode_lo == trimmed.mode_lo
        assert plain.mode_hi == trimmed.mode_hi

    @given(unimodal_lists())
    def test_unimodal_rows_pass_any_valid_trim(self, cs):
        p = Polynomial(cs)
        for a in range(p.degree // 2 + 1):
            assert check_almost_unimodal(p, a).passed

    def test_window_indices_are_absolute(self):
        rep = check_almost_unimodal(Polynomial([9, 1, 2, 1, 2, 1, 9]), 1)
        assert not rep.passed
        assert rep.first_violation == 4

    def test_trim_bounds(self):
        with pytest.raises(ValueError):
            check_almost_unimodal(Polynomial([1, 1, 1]), 2)
        with pytest.raises(ValueError):
            check_almost_unimodal(Polynomial([1]), -1)


class TestReportShape:
    def test_json_includes_what_is_set(self):
        rep = CheckReport("demo", False, first_violation=7, n=3, details="x")
        assert rep.to_json_dict() == {
            "kind": "demo",
            "passed": False,
            "first_violation": 7,
            "n": 3,
            "details": "x",
        }

    def test_json_keeps_zeros_and_drops_empty_details(self):
        # set means not None: a violation at index 0 of row 0 is reported
        rep = CheckReport("demo", False, first_violation=0, n=0, details="")
        assert rep.to_json_dict() == {"kind": "demo", "passed": False, "first_violation": 0, "n": 0}
