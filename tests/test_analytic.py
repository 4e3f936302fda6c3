"""Quadrature, certificates, and special-function tests.

Float behavior is pinned with explicit tolerances and seeded sweeps.
The exact integer layer cross-checks the integral reconstruction.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qunimodal import _draws, analytic
from qunimodal._draws import SeededDraws
from qunimodal.analytic import (
    GAMMA_THREE_HALVES,
    GAUSSIAN_RATE,
    IDENTITY_IDS,
    BoundCertificate,
    certify_E_bound,
    coeff_by_integral,
    cosine_product,
    e_exponent,
    envelope_bound,
    envelope_exponent_grid,
    envelope_grid,
    f_log,
    f_log_derivative,
    f_sweep_certificates,
    f_value,
    gamma_tail,
    gamma_tail_certificates,
    i1_lower_bound,
    i2_ratio_check,
    integrand,
    lobe_ratio_certificates,
    mu_of,
    quad_I,
    reconstruction_sweep,
    sign_accord_sweep,
    sweep_identity_residuals,
    sweep_inequality_margins,
    trig_identity_residual,
    trig_inequality_margin,
)
from qunimodal.analytic import _on_grid, _sin_multiple, _sine_power_sum, _sines
from qunimodal.analytic import _sine_power_sums
from qunimodal.errors import (
    DomainViolation,
    GridTooCoarse,
    NearSingular,
    SingularPoint,
)
from qunimodal.polynomials import Polynomial, ProductSpec, build_product, coeff
from qunimodal.quadrature import integrate_oscillatory

import oracles


class TestQuadrature:
    def test_plain_cosine(self):
        r = integrate_oscillatory(np.cos, 0.0, math.pi / 2, frequency=1.0)
        assert abs(r.value - 1.0) <= max(r.abs_error_estimate, 1e-14)

    def test_doubling_self_consistency(self):
        f = lambda t: np.sin(40 * t) * np.exp(-t)
        r = integrate_oscillatory(f, 0.0, 3.0, frequency=40.0)
        fine = integrate_oscillatory(f, 0.0, 3.0, frequency=80.0)
        assert abs(r.value - fine.value) <= r.abs_error_estimate + fine.abs_error_estimate

    def test_panel_budget(self):
        with pytest.raises(GridTooCoarse):
            integrate_oscillatory(np.cos, 0.0, 1.0, frequency=1e7)

    def test_result_fields(self):
        r = integrate_oscillatory(np.cos, 0.0, 1.0, frequency=2.0)
        assert r.panels >= 2
        assert r.abs_error_estimate >= 0.0


# Integrands with a closed-form integral over [0, L] and top frequency f.
def _exact_cos(f, L):
    return math.sin(f * L) / f


def _exact_x_sin(f, L):
    return (math.sin(f * L) - f * L * math.cos(f * L)) / f**2


def _exact_damped_sin(f, L):
    return (f - math.exp(-L) * (math.sin(f * L) + f * math.cos(f * L))) / (1.0 + f**2)


CLOSED_FORMS = {
    "cos": (lambda f: lambda x: np.cos(f * x), _exact_cos),
    "x_sin": (lambda f: lambda x: x * np.sin(f * x), _exact_x_sin),
    "damped_sin": (lambda f: lambda x: np.exp(-x) * np.sin(f * x), _exact_damped_sin),
}


class TestErrorEstimate:
    """abs_error_estimate bounds the true error, against closed forms and exact integrals."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize("f", [10.0, 333.0, 1e4, 1e5])
    def test_bounds_error_at_stated_frequency(self, name, f):
        integrand_at, exact = CLOSED_FORMS[name]
        length = 1.3
        r = integrate_oscillatory(integrand_at(f), 0.0, length, frequency=f)
        assert length / r.panels <= math.pi / f  # fine panel: at most half a period
        assert abs(r.value - exact(f, length)) <= r.abs_error_estimate

    def test_bounds_error_of_each_row(self):
        rates = np.array([10.0, 977.0, 3e4, 1e5])
        length = 1.3
        r = integrate_oscillatory(
            lambda x: np.exp(-x) * np.sin(np.multiply.outer(rates, x)), 0.0, length, frequency=rates.max()
        )
        assert length / r.panels <= math.pi / rates.max()
        for rate, value, estimate in zip(rates, r.value, r.abs_error_estimate):
            assert abs(value - _exact_damped_sin(rate, length)) <= estimate

    @pytest.mark.parametrize("n", range(13))
    def test_theta_kernel_within_estimate_of_exact_integral(self, n):
        # pi * r is the exact full-range theta-kernel integral at each offset.
        row = oracles.naive_product(oracles.main_factors(n))
        degree = len(row) - 1
        mus = list(range(2 - degree % 2, 6 * n + 4, 2))
        r = quad_I(n, mus, 0.0, math.pi / 2)
        for mu, value, estimate in zip(mus, r.value, r.abs_error_estimate):
            exact = math.pi * float(oracles.theta_kernel_over_pi(row, mu))
            assert abs(value - exact) <= estimate, mu


class TestIntegrand:
    def test_zero_at_origin(self):
        assert integrand(3, 5.0, 0.0) == 0.0

    def test_zero_frequency(self):
        assert integrand(3, 0.0, 0.7) == 0.0

    def test_cosine_zero(self):
        # cos(2 * pi/4) = 0 kills the n=0 product at theta = pi/4.
        assert integrand(0, 2.0, math.pi / 4) == pytest.approx(0.0, abs=1e-16)

    def test_vectorized_matches_scalar(self):
        thetas = np.linspace(0.01, 1.5, 7)
        vec = integrand(4, 9.0, thetas)
        for t, v in zip(thetas, vec):
            assert v == pytest.approx(integrand(4, 9.0, float(t)), rel=1e-15)


class TestQuadI:
    def test_zero_mu_vanishes(self):
        r = quad_I(5, 0, 0.0, math.pi / 2)
        assert abs(r.value) <= max(r.abs_error_estimate, 1e-15)

    def test_small_case_positive(self):
        r = quad_I(1, 8, 0.0, math.pi / 2)
        assert r.value > r.abs_error_estimate > 0.0

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            quad_I(1, 8, 1.0, 0.5)
        with pytest.raises(ValueError):
            quad_I(1, 8, 0.0, 2.0)

    def test_panel_budget(self):
        with pytest.raises(GridTooCoarse):
            quad_I(1300, 7, 0.0, math.pi / 2)


class TestCoeffByIntegral:
    @pytest.mark.parametrize("n,m,want", [(0, 2, 1), (1, 6, 2), (8, 0, 1)])
    def test_spot_values(self, n, m, want):
        assert coeff_by_integral(n, m) == pytest.approx(want, rel=1e-6)

    def test_full_row(self):
        exact = oracles.naive_product(oracles.main_factors(4))
        for m, c in enumerate(exact):
            assert coeff_by_integral(4, m) == pytest.approx(c, rel=1e-6)

    def test_out_of_range_m(self):
        with pytest.raises(ValueError):
            coeff_by_integral(2, -1)
        with pytest.raises(ValueError):
            coeff_by_integral(2, 28)

    def test_large_n_refused(self):
        with pytest.raises(GridTooCoarse):
            coeff_by_integral(13, 0)

    @pytest.mark.parametrize("n", range(9))
    def test_half_row_in_one_pass_rounds_to_exact(self, n):
        exact = oracles.naive_product(oracles.main_factors(n))
        half = len(exact) // 2 + 1
        approx = coeff_by_integral(n, range(half))
        assert isinstance(approx, np.ndarray) and approx.shape == (half,)
        assert [round(v) for v in approx.tolist()] == exact[:half]

    @pytest.mark.parametrize("n,m", [(0, 1), (3, 0), (5, 17), (8, 40), (8, 120), (12, 7)])
    def test_one_index_sequence_matches_the_scalar_bits(self, n, m):
        scalar = coeff_by_integral(n, m)
        assert type(scalar) is float
        assert coeff_by_integral(n, [m])[0] == scalar

    def test_out_of_range_m_in_a_sequence(self):
        with pytest.raises(ValueError):
            coeff_by_integral(2, [0, 28])


class TestMuOf:
    def test_in_window(self):
        info = mu_of(1, 2)
        assert (info.mu, info.in_window) == (8, True)

    def test_out_of_window(self):
        info = mu_of(1, 0)
        assert (info.mu, info.in_window) == (12, False)

    def test_center(self):
        assert mu_of(1, 6).mu == 0


class TestI1LowerBound:
    def test_formula(self):
        assert i1_lower_bound(200, 7.0) == pytest.approx(0.0583 * 7.0 * 200.0**-4.5, rel=1e-15, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            i1_lower_bound(0, 1.0)
        with pytest.raises(ValueError):
            i1_lower_bound(10, -1.0)


class TestEExponent:
    def test_singular_origin(self):
        with pytest.raises(SingularPoint):
            e_exponent(168, 0.0)

    def test_grid_matches_scalar(self):
        thetas = np.linspace(0.02, 1.5, 9)
        values, errors = envelope_exponent_grid(168, thetas)
        assert np.all(errors > 0)
        for t, v in zip(thetas, values):
            assert v == pytest.approx(e_exponent(168, float(t)), rel=1e-12)

    def test_leading_term_scale(self):
        # The flat -11(n+1)/16 term dominates away from the origin.
        v = e_exponent(168, 1.0)
        assert -130.0 < v < -100.0


class TestCertifyEnvelope:
    def test_baseline_passes(self):
        cert = certify_E_bound(168, 2000)
        assert cert.passed
        assert cert.min_margin > cert.error_budget
        branches = cert.detail["branches"]
        assert set(branches) == {"theta_le_pi_over_6", "theta_gt_pi_over_6"}
        for blob in branches.values():
            assert blob["min_margin"] > blob["error_budget"]

    def test_margin_grows_with_n(self):
        m168 = certify_E_bound(168, 2000).min_margin
        m2000 = certify_E_bound(2000, 2000).min_margin
        assert m2000 > m168

    def test_steep_slope_fails(self, monkeypatch):
        monkeypatch.setattr(analytic, "ENVELOPE_SLOPE", 0.9)
        cert = certify_E_bound(168, 2000)
        assert not cert.passed
        assert cert.min_margin < 0

    def test_domain(self):
        with pytest.raises(ValueError):
            certify_E_bound(167, 2000)
        with pytest.raises(ValueError):
            certify_E_bound(168, 10)


class TestComparisonFactor:
    def test_value_at_first_n(self):
        assert 0.849 < f_value(168) < 0.851

    def test_log_consistency(self):
        assert math.exp(f_log(300)) == pytest.approx(f_value(300), rel=1e-12)

    def test_log_derivative_profile(self):
        d168 = f_log_derivative(168)
        d1000 = f_log_derivative(1000)
        d5000 = f_log_derivative(5000)
        assert d168 == pytest.approx(-0.1362, abs=5e-4)
        assert d168 < -0.13
        assert d168 > d1000 > d5000 > -0.163

    def test_far_tail_underflows_but_log_survives(self):
        # The exponential factor leaves double range near n = 4572; the
        # log form keeps full precision there.
        assert f_value(5000) == 0.0
        assert -860.0 < f_log(5000) < -760.0

    def test_domain(self):
        for fn in (f_value, f_log, f_log_derivative):
            with pytest.raises(ValueError):
                fn(0)

    def test_log_derivative_on_arrays(self):
        values = f_log_derivative(np.array([168.0, 1000.0]))
        assert values.tolist() == [f_log_derivative(168), f_log_derivative(1000)]
        with pytest.raises(ValueError):
            f_log_derivative(np.array([168.0, 0.5]))

    def test_certificates(self):
        window, decreasing, ceiling = f_sweep_certificates(168, 400)
        assert window.bound_id == "f_168_window"
        assert window.passed and window.min_margin > 0
        assert decreasing.bound_id == "f_strictly_decreasing"
        assert decreasing.passed
        assert ceiling.bound_id == "f_log_derivative_ceiling"
        assert ceiling.passed

    def test_certificate_domain(self):
        with pytest.raises(ValueError):
            f_sweep_certificates(100, 200)

    def test_decrease_counts_every_n_of_its_range(self):
        _, decreasing, _ = f_sweep_certificates(168, 400)
        assert (decreasing.grid_lo, decreasing.grid_hi, decreasing.grid_points) == (168.0, 400.0, 233)


class TestGridCertificate:
    def test_a_tie_reports_its_first_point(self):
        cert = _on_grid("tie", np.array([0.5, 1.5, 2.5, 3.5]), np.array([2.0, -1.0, 4.0, -1.0]), 0.0, {})
        assert (cert.min_margin, cert.argmin) == (-1.0, 1.5)
        assert not cert.passed

    def test_the_grid_spans_its_points(self):
        cert = _on_grid("span", np.array([3.0, -2.0, 7.0, 1.0]), np.array([1.0, 2.0, 3.0, 0.5]), 0.25, {"k": 1})
        assert (cert.grid_lo, cert.grid_hi, cert.grid_points) == (-2.0, 7.0, 4)
        assert (cert.min_margin, cert.argmin, cert.error_budget, cert.detail) == (0.5, 1.0, 0.25, {"k": 1})
        assert cert.passed

    def test_points_override_the_margin_count(self):
        # Differences between neighbours: one margin fewer than the points they span.
        ns = np.arange(10.0, 15.0)
        cert = _on_grid("steps", ns, np.diff(ns), 0.0, {}, points=len(ns))
        assert (cert.grid_lo, cert.grid_hi, cert.grid_points, cert.argmin) == (10.0, 14.0, 5, 10.0)


class TestGammaTail:
    def test_matches_decimal_series(self):
        # The oracle sums the lower gamma series in decimal: no erfc, no float.
        for x in np.linspace(0.0, 200.0, 81):
            want = oracles.upper_gamma_three_halves(float(x))
            assert gamma_tail(float(x)) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_matches_asymptotic_series(self):
        x = 500.0
        want = oracles.upper_gamma_three_halves_asymptotic(x)
        assert gamma_tail(x) == pytest.approx(want, rel=1e-6, abs=0.0)

    def test_matches_mpmath_to_machine_precision(self):
        mpmath = pytest.importorskip("mpmath")
        xs = [0.5 * i for i in range(1401)] + [GAUSSIAN_RATE * 168**3 / 506**2]
        with mpmath.workdps(40):
            worst = max(abs(gamma_tail(x) / mpmath.gammainc(1.5, x) - 1) for x in xs)
        assert worst <= 1e-15

    def test_scipy_cross_check(self):
        sp = pytest.importorskip("scipy.special")
        for x in (0.5, 3.0, 25.0, 71.0):
            want = float(sp.gammaincc(1.5, x)) * math.gamma(1.5)
            assert gamma_tail(x) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_anchors(self):
        assert gamma_tail(0.0) == pytest.approx(GAMMA_THREE_HALVES, abs=1e-15)
        x_star = GAUSSIAN_RATE * 168**3 / 506**2
        assert gamma_tail(x_star) <= 1.29e-30

    def test_monotone(self):
        xs = np.linspace(0.0, 120.0, 61)
        vals = [gamma_tail(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_tail(-0.1)

    def test_certificates(self):
        zero, cutoff = gamma_tail_certificates()
        assert zero.passed and zero.bound_id == "gamma_tail_at_zero"
        assert cutoff.passed and cutoff.bound_id == "gamma_tail_at_cutoff"
        assert cutoff.min_margin > cutoff.error_budget


class TestTrigIdentities:
    def test_exact_at_small_n(self):
        # Both closed forms reproduce the direct sums to the last bit
        # at modest n and generic angles.
        assert trig_identity_residual("sin2_sum", 7, 1.234) == 0.0
        assert trig_identity_residual("sin4_sum", 7, 1.234) == 0.0

    def test_direct_sum_agreement(self):
        x = 0.61
        direct = math.fsum(math.sin(k * x) ** 2 for k in range(1, 12))
        closed = direct - trig_identity_residual("sin2_sum", 11, x)
        # residual = direct - closed form, so closed recovers the sum
        assert closed == pytest.approx(direct, abs=1e-12)

    def test_near_singular_rejected(self):
        with pytest.raises(NearSingular):
            trig_identity_residual("sin2_sum", 10, math.pi)

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            trig_identity_residual("sin3_sum", 5, 0.3)

    def test_seed_with_small_sines_passes(self):
        # At this seed the sin^4 sum meets n=9034 with |sin x| near 0.032;
        # plain k*x products put its residual past the 1e-9 bound.
        for cert in sweep_identity_residuals(seed=1039885960):
            assert cert.passed
            assert cert.detail["max_abs_residual"] < 1e-11

    def test_sweep_is_seeded(self):
        a = sweep_identity_residuals(60, seed=7)
        b = sweep_identity_residuals(60, seed=7)
        assert [c.min_margin for c in a] == [c.min_margin for c in b]
        assert all(c.passed for c in a)

    @pytest.mark.parametrize("x", [1e-3, math.pi - 1e-3, math.pi / 2 - 5.1e-4, 1.234, 2.7492])
    def test_blocked_sines_match_mpmath(self, x):
        # x near pi/2 puts |sin 2x| at its 1e-3 floor.
        mpmath = pytest.importorskip("mpmath")
        sines = _sines(10_000, x).tolist()
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            worst = max(abs(mpmath.sin(k * xm) - s) for k, s in enumerate(sines, start=1))
        assert worst <= 4 * 2.0 ** -52

    @pytest.mark.parametrize("n", [1, 7, 127])
    def test_small_n_sines_are_bit_equal(self, n):
        # Below one block the rotation is by sin 0 = 0, cos 0 = 1, so the
        # direct sums of test_exact_at_small_n are those of _sin_multiple.
        for x in (0.3, 1.234, 2.9):
            assert _sines(n, x).tobytes() == _sin_multiple(np.arange(1, n + 1), x)[0].tobytes()

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 10_000])
    @pytest.mark.parametrize("x", [1.234, math.pi / 64])
    def test_direct_sum_is_correctly_rounded(self, n, x):
        squares = _sines(n, x) ** 2
        fourths = squares ** 2
        if x == math.pi / 64 and n >= 64:  # k = 64 sits on the float pi
            assert fourths.min() < 1e-30
        assert _sine_power_sum(n, x, 2) == math.fsum(squares.tolist())
        assert _sine_power_sum(n, x, 4) == math.fsum(fourths.tolist())

    def test_draws_follow_the_rejection_loop(self):
        # Seed 35 redraws one sin4_sum sample whose |sin 2x| is below the floor.
        draws = oracles.identity_draws(35, 200)
        assert [len(draws[i][1]) for i in IDENTITY_IDS] == [0, 1]
        for identity, cert in zip(IDENTITY_IDS, sweep_identity_residuals(200, seed=35)):
            accepted = draws[identity][0]
            assert cert.grid_points == len(accepted) == 200
            worst = (cert.detail["worst_n"], cert.argmin)
            assert worst in accepted
            assert abs(trig_identity_residual(identity, *worst)) == cert.detail["max_abs_residual"]

    @pytest.mark.parametrize("budget", [1, 3, None])
    def test_batching_changes_no_bit(self, monkeypatch, budget):
        # Chunks of whole draws give each draw's sum the bits of its own
        # one-draw call, whatever the row and draw budgets.
        want_certs = [c.to_json_dict() for c in sweep_identity_residuals(200, seed=35)]
        if budget is not None:
            monkeypatch.setattr(analytic, "_CHUNK_ROWS", budget)
            monkeypatch.setattr(analytic, "_DRAW_BLOCK", budget)
        draws = [(n, x) for n in (1, 127, 128, 129, 255, 256, 10_000)
                 for x in (1.234, math.pi / 64, math.pi / 2 - 5.1e-4)]
        draws = [draws[i] for i in np.random.default_rng(5).permutation(len(draws))]
        ns, xs = np.array([n for n, _ in draws]), np.array([x for _, x in draws])
        squares = [_sines(n, x) ** 2 for n, x in draws]
        assert _sine_power_sums(ns, xs, 2).tolist() == [math.fsum(s.tolist()) for s in squares]
        assert _sine_power_sums(ns, xs, 4).tolist() == [math.fsum((s ** 2).tolist()) for s in squares]
        assert [c.to_json_dict() for c in sweep_identity_residuals(200, seed=35)] == want_certs

    def test_default_seed_certificates(self):
        sin2, sin4 = sweep_identity_residuals()
        for cert, argmin, residual, worst_n, margin in (
            (sin2, 1.43029347127775, 9.094947017729282e-13, 9395, 9.990905052982271e-10),
            (sin4, 1.8579005561607367, 4.547473508864641e-13, 6497, 9.995452526491136e-10),
        ):
            assert cert.argmin == argmin
            assert cert.min_margin == margin
            assert cert.detail == {"max_abs_residual": residual, "worst_n": worst_n,
                                   "seed": 20260822, "n_cap": 10_000}


class TestSeededDraws:
    """The identity sweep's stream is numpy's default_rng(seed) stream, bit for bit."""

    # Seeds above 2^32 give SeedSequence two or more entropy words, above
    # 2^128 more than its pool of four.
    @pytest.mark.parametrize("seed", [0, 1, 7, 35, 20260822, 1039885960, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 17])
    def test_draws_match_numpy(self, seed):
        want, got = np.random.default_rng(seed), SeededDraws(seed)
        for _ in range(3000):
            assert got.integers(1, 10_001) == int(want.integers(1, 10_001))
            assert got.uniform(1e-3, math.pi - 1e-3) == float(want.uniform(1e-3, math.pi - 1e-3))

    def test_wide_range_takes_the_rejection_loop(self):
        # Over 2^31 + 1 values Lemire's method redraws about half the time.
        calls = []
        want, got = np.random.default_rng(11), SeededDraws(11)
        next32 = got._next32
        got._next32 = lambda: calls.append(1) or next32()
        for _ in range(200):
            assert got.integers(5, 5 + 2**31 + 1) == int(want.integers(5, 5 + 2**31 + 1))
            assert got.uniform(0.0, 1.0) == float(want.uniform(0.0, 1.0))
        assert len(calls) > 250

    def test_negative_seed_raises_before_any_draw(self, monkeypatch):
        # numpy's SeedSequence refuses a negative seed; the sweep refuses it before it seeds a stream.
        monkeypatch.setattr(_draws, "_pcg64", lambda seed: pytest.fail("seeded"))
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError, match="seed"):
            sweep_identity_residuals(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            SeededDraws(-(2**40))
        with pytest.raises(TypeError):
            SeededDraws(1.5)


class TestTrigInequalities:
    def test_sin_lower_bound_value(self):
        want = math.sin(1.0) - math.exp(-1.0 / 3.0)
        assert trig_inequality_margin("sin_lb_24", 1.0) == pytest.approx(want, rel=1e-14)

    def test_cos_bound_tight_at_edge(self):
        assert abs(trig_inequality_margin("cos_lb_25", 1.0)) <= 1e-15

    def test_sandwich_at_zero(self):
        assert trig_inequality_margin("sin_sandwich_26", 0.0) == 0.0

    def test_ratio_form(self):
        want = 5.0 - math.sin(1.5) / math.sin(0.3)
        assert trig_inequality_margin("ratio_27_1", (5, 0.3)) == pytest.approx(want, rel=1e-14)

    def test_ratio_needs_an_integer_n(self):
        # n = 2.7 must not be read as int(2.7) = 2; an integral float is still n
        with pytest.raises(ValueError, match="integer"):
            trig_inequality_margin("ratio_27_1", (2.7, 1.0))
        assert trig_inequality_margin("ratio_27_1", (5.0, 0.3)) == trig_inequality_margin("ratio_27_1", (5, 0.3))

    @pytest.mark.parametrize(
        "inequality,point",
        [
            ("sin_lb_24", 2.5),
            ("cos_lb_25", 1.5),
            ("sin_sandwich_26", -1.0),
            ("ratio_27_1", (5, 0.0)),
        ],
    )
    def test_domain_violations(self, inequality, point):
        with pytest.raises(DomainViolation):
            trig_inequality_margin(inequality, point)

    def test_sweep(self):
        certs = sweep_inequality_margins(2000)
        assert len(certs) == 5
        assert all(c.passed for c in certs)
        # the claimed margin folds in the comparison slack
        assert all(c.min_margin > 0 for c in certs)


class TestLobeRatio:
    def test_exploratory_small_n(self):
        cert = i2_ratio_check(5, 3)
        assert cert.passed
        flags = cert.detail["flags"]
        assert "exploratory_below_168" in flags and "non_coefficient_probe" in flags

    def test_vacuous_center(self):
        assert lobe_ratio_certificates(168, [0])[0].to_json_dict() == {
            "bound_id": "lobe_ratio",
            "grid": {"lo": 0.0, "hi": math.pi / 2, "points": 0},
            "min_margin": 0.0,
            "argmin": math.pi / 1012,
            "error_budget": 0.0,
            "passed": True,
            "n": 168,
            "detail": {"mu": 0, "vacuous": True, "flags": ["non_coefficient_probe"]},
        }

    def test_domain(self):
        with pytest.raises(ValueError):
            i2_ratio_check(0, 1)
        with pytest.raises(ValueError):
            i2_ratio_check(5, -1)

    def test_a_generator_of_offsets_gives_the_list_certificates(self):
        # The domain check must not use up a one-shot iterable.
        assert lobe_ratio_certificates(20, (mu for mu in [1, 3])) == lobe_ratio_certificates(20, [1, 3])


class TestOnePassRule:
    def test_passed_is_margin_above_budget(self):
        certificates = [
            certify_E_bound(168, 1000),
            *gamma_tail_certificates(),
            *f_sweep_certificates(168, 400),
            *sweep_identity_residuals(60, seed=7),
            *sweep_inequality_margins(1000),
            *lobe_ratio_certificates(20, [0, 1, 3]),
        ]
        assert len(certificates) == 16
        for cert in certificates:
            if cert.bound_id == "envelope_exponent":
                parts = [cert.to_json_dict(), *cert.detail["branches"].values()]
                assert cert.passed == all(p["min_margin"] > p["error_budget"] for p in parts)
            elif cert.detail.get("vacuous"):
                assert cert.passed and cert.min_margin == cert.error_budget == 0.0
            else:
                assert cert.passed == (cert.min_margin > cert.error_budget), cert.bound_id

    @pytest.mark.parametrize("margin, budget, passed", [(2.0, 1.0, True), (1.0, 1.0, False), (-1.0, 0.0, False)])
    def test_passed_is_worked_out_when_not_given(self, margin, budget, passed):
        cert = BoundCertificate("probe", 0.0, 1.0, 2, margin, 0.5, budget)
        assert cert.passed is passed

    def test_json_keeps_zeros_and_drops_what_is_unset(self):
        grid = {"lo": 0.0, "hi": 1.0, "points": 0}
        kept = BoundCertificate("probe", 0.0, 1.0, 0, 0.0, 0.0, 0.0, passed=False, n=0, detail={"mu": 0})
        assert kept.to_json_dict() == {"bound_id": "probe", "grid": grid, "min_margin": 0.0, "argmin": 0.0,
                                       "error_budget": 0.0, "passed": False, "n": 0, "detail": {"mu": 0}}
        dropped = BoundCertificate("probe", 0.0, 1.0, 0, 0.0, 0.0, 0.0, passed=False, n=None, detail={})
        assert dropped.to_json_dict() == {"bound_id": "probe", "grid": grid, "min_margin": 0.0, "argmin": 0.0,
                                          "error_budget": 0.0, "passed": False}


class TestReconstructionSweep:
    def test_small_rows(self):
        reports = reconstruction_sweep(4)
        assert len(reports) == 5
        assert all(r.passed for r in reports)
        assert all("max_rel_err" in r.details for r in reports)

    def test_rows_above_twelve_are_refused(self):
        with pytest.raises(GridTooCoarse):
            reconstruction_sweep(13)

    def test_one_quadrature_per_row(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return integrate_oscillatory(*args, **kwargs)

        monkeypatch.setattr("qunimodal.analytic.integrate_oscillatory", counting)
        reports = reconstruction_sweep(8)
        assert all(r.passed for r in reports)
        assert len(calls) == 9
        # each row runs on the grid of its largest offset, mu = d at m = 0
        assert calls == [2.0 * 3 * (n + 1) ** 2 for n in range(9)]


class TestSignAccord:
    def test_detects_the_known_interpolant_dip(self):
        # At n=5 the smoothed coefficient function dips between m=48
        # and m=49 even though the integer sequence rises by 1 there,
        # so the derivative integral is negative while the discrete
        # difference is positive. The sweep must surface exactly that.
        reports = sign_accord_sweep(6)
        by_n = {r.n: r for r in reports}
        assert not by_n[5].passed
        assert by_n[5].first_violation == 49
        for n in (0, 1, 2, 3, 4, 6):
            assert by_n[n].passed

    def test_skip_accounting(self):
        reports = sign_accord_sweep(1)
        assert "checked=1 skipped=1" in reports[0].details
        assert "checked=1 skipped=3" in reports[1].details

    def test_theta_kernel_matches_exact_closed_form(self):
        # quad_I over the full range equals pi times the exact rational
        # from the integer row, within the quadrature's own error estimate.
        for n in range(5):
            row = oracles.naive_product(oracles.main_factors(n))
            degree = len(row) - 1
            for mu in range(1, 6 * n + 4):
                if (degree - mu) % 2:
                    continue
                exact = math.pi * float(oracles.theta_kernel_over_pi(row, mu))
                result = quad_I(n, mu, 0.0, math.pi / 2)
                assert abs(result.value - exact) <= result.abs_error_estimate


class TestOneFormulaPerInequality:
    @pytest.mark.parametrize("points", [97, 500])
    def test_scalar_form_reproduces_every_sweep_certificate(self, points):
        # Rebuild each sweep grid from its certificate and evaluate the scalar
        # form at every point: its minimum and argmin must be the sweep's own.
        for cert in sweep_inequality_margins(points):
            inequality = cert.bound_id.removeprefix("inequality_margin_")
            if inequality == "ratio_27_1":
                xs = np.linspace(cert.grid_lo, cert.grid_hi, cert.grid_points // 10)
                grid = [(n, x) for n in range(2, 12) for x in xs]
                xs_of = [x for _, x in grid]
            else:
                grid = xs_of = np.linspace(cert.grid_lo, cert.grid_hi, cert.grid_points)
            margins = [trig_inequality_margin(inequality, point) for point in grid]
            worst = int(np.argmin(margins))
            assert margins[worst] == cert.detail["raw_min_margin"], inequality
            assert xs_of[worst] == cert.argmin, inequality

    def test_unknown_inequality(self):
        with pytest.raises(ValueError):
            trig_inequality_margin("tan_lb_99", 0.5)

    def test_domain_edges_are_inside(self):
        assert trig_inequality_margin("sin_lb_24", 2.0) > 0.0
        assert trig_inequality_margin("cos_lb_25", -1.0) == trig_inequality_margin("cos_lb_25", 1.0)


class TestEnvelopeGrid:
    def test_grid_clears_the_sine_zeros(self):
        thetas = envelope_grid(168, 1000)
        assert len(thetas) == 1000
        assert thetas[0] == math.pi / (6 * 168 + 4)
        for k in (1, 2, 3, 6):
            assert np.abs(np.sin(k * thetas)).min() >= 1e-12
        # only pi/2 itself sits on a zero of sin(2 theta); it moves half a step in
        step = (math.pi / 2 - thetas[0]) / 999
        assert thetas[-1] == pytest.approx(math.pi / 2 - step / 2, rel=1e-15)
        assert np.array_equal(thetas[:-1], np.linspace(thetas[0], math.pi / 2, 1000)[:-1])

    def test_certificate_uses_the_grid(self):
        cert = certify_E_bound(168, 1000)
        thetas = envelope_grid(168, 1000)
        values, _ = envelope_exponent_grid(168, thetas)
        bound = envelope_bound(168)
        assert bound == -cert.detail["slope"] * 168 - cert.detail["intercept"]
        assert cert.min_margin == min(bound - e for e in values)
        assert cert.argmin == float(thetas[np.argmin(bound - values)])

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_fewer_than_two_points_are_refused(self, grid_points):
        with pytest.raises(ValueError, match="at least 2 points"):
            envelope_grid(168, grid_points)

    def test_identity_sweep_reports_its_n_cap(self):
        for cert in sweep_identity_residuals(5, seed=3):
            assert cert.detail["n_cap"] == 10_000


class TestLargeNCosineProduct:
    @pytest.mark.parametrize("n", [510, 511, 1023, 1100, 1500, 3000])
    def test_matches_the_plain_product(self, n):
        thetas = [1e-5, 3e-5, 1e-4]
        want = [math.prod(math.cos((3 * k + 1) * t) * math.cos((3 * k + 2) * t) for k in range(n + 1))
                for t in thetas]
        got = cosine_product(n, np.array(thetas))
        assert np.all(np.isfinite(got))
        assert got.tolist() == pytest.approx(want, rel=1e-11)

    def test_no_overflow_near_zero(self):
        # The folded factors are near 2 here; unscaled, 1101 of them overflow.
        assert cosine_product(1100, 1e-5) == pytest.approx(0.6700294407846888, rel=1e-12)


class TestIdentitySweepSamples:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_empty_sweep_is_refused(self, samples):
        with pytest.raises(ValueError, match="samples"):
            sweep_identity_residuals(samples)

    def test_memory_does_not_grow_with_samples(self):
        sweep_identity_residuals(10, seed=7)  # first-call allocations
        peaks = []
        for samples in (300, 3000):
            tracemalloc.start()
            try:
                sweep_identity_residuals(samples, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.5 * 2**20
