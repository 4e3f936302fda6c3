"""Quadrature, certificates, and special-function tests.

Float behavior is pinned with explicit tolerances and seeded sweeps.
The exact integer layer cross-checks the integral reconstruction.
"""

import math

import numpy as np
import pytest

from qunimodal.analytic import (
    GAMMA_THREE_HALVES,
    GAUSSIAN_RATE,
    certify_E_bound,
    coeff_by_integral,
    e_exponent,
    envelope_exponent_grid,
    f_log,
    f_log_derivative,
    f_sweep_certificates,
    f_value,
    gamma_tail,
    gamma_tail_certificates,
    i1_lower_bound,
    i2_ratio_check,
    integrand,
    mu_of,
    quad_I,
    reconstruction_sweep,
    sign_accord_sweep,
    sweep_identity_residuals,
    sweep_inequality_margins,
    trig_identity_residual,
    trig_inequality_margin,
)
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
            integrate_oscillatory(np.cos, 0.0, 1.0, frequency=1e6, max_panels=100)

    def test_result_fields(self):
        r = integrate_oscillatory(np.cos, 0.0, 1.0, frequency=2.0)
        assert r.panels >= 2
        assert r.abs_error_estimate >= 0.0


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
            quad_I(12, 1, 0.0, math.pi / 2, max_panels=50)


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
        assert i1_lower_bound(200, 7.0) == pytest.approx(0.0583 * 7.0 * 200.0**-4.5, rel=1e-15)

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

    def test_steep_slope_fails(self):
        cert = certify_E_bound(168, 2000, slope=0.9)
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


class TestGammaTail:
    def test_matches_erfc_form(self):
        for x in np.linspace(0.0, 200.0, 81):
            want = oracles.upper_gamma_three_halves(float(x))
            assert gamma_tail(float(x)) == pytest.approx(want, rel=1e-9)

    def test_matches_asymptotic_series(self):
        x = 500.0
        want = oracles.upper_gamma_three_halves_asymptotic(x)
        assert gamma_tail(x) == pytest.approx(want, rel=1e-6)

    def test_scipy_cross_check(self):
        sp = pytest.importorskip("scipy.special")
        for x in (0.5, 3.0, 25.0, 71.0):
            want = float(sp.gammaincc(1.5, x)) * math.gamma(1.5)
            assert gamma_tail(x) == pytest.approx(want, rel=1e-12)

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

    def test_sweep_is_seeded(self):
        a = sweep_identity_residuals(60, seed=7)
        b = sweep_identity_residuals(60, seed=7)
        assert [c.min_margin for c in a] == [c.min_margin for c in b]
        assert all(c.passed for c in a)


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
        cert = i2_ratio_check(168, 0)
        assert cert.passed and cert.detail["vacuous"]

    def test_domain(self):
        with pytest.raises(ValueError):
            i2_ratio_check(0, 1)
        with pytest.raises(ValueError):
            i2_ratio_check(5, -1)


class TestReconstructionSweep:
    def test_small_rows(self):
        reports = reconstruction_sweep(4)
        assert len(reports) == 5
        assert all(r.passed for r in reports)
        assert all("max_rel_err" in r.details for r in reports)

    def test_rows_above_twelve_are_refused(self):
        with pytest.raises(GridTooCoarse):
            reconstruction_sweep(13)


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
