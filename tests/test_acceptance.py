"""Top-level acceptance gate.

Each test exercises one headline guarantee end to end at its stated
tolerance and reports a single PASS/FAIL line through the terminal
summary hook in conftest. Budgeted runtimes are asserted where the
guarantee includes one.
"""

import json
import math
import time

import numpy as np

from conftest import record_acceptance
import oracles

from qunimodal.analytic import (
    GAMMA_THREE_HALVES,
    GAUSSIAN_RATE,
    certify_E_bound,
    cosine_product,
    f_log,
    f_log_derivative,
    f_value,
    gamma_tail,
    quad_I,
    reconstruction_sweep,
    sign_accord_sweep,
    sweep_identity_residuals,
    sweep_inequality_margins,
)
from qunimodal.checks import check_almost_unimodal, check_symmetric, check_unimodal
from qunimodal.cli import main
from qunimodal.polynomials import (
    Polynomial,
    ProductSpec,
    build_product,
    evaluate_at_minus_one,
    evaluate_at_one,
    mul_binomial,
    recurrence_step,
)
from qunimodal.quadrature import integrate_oscillatory


def test_01_exact_expansion_matches_oracle():
    t0 = time.time()
    ok = True
    for n in range(7):
        mine = build_product(ProductSpec.main(n)).coeffs
        theirs = tuple(oracles.naive_product(oracles.main_factors(n)))
        ok = ok and mine == theirs
    elapsed = time.time() - t0
    record_acceptance(
        1, f"exact expansion equals pairwise oracle for n <= 6 ({elapsed:.2f}s < 1s)",
        ok and elapsed < 1.0,
    )


def test_02_full_family_verification(tmp_path):
    t0 = time.time()

    def passed_all(command):
        report_path = tmp_path / f"{command}.json"
        code = main([command, "--n-max", "167", "--report", str(report_path)])
        results = json.loads(report_path.read_text())["results"]
        return code == 0 and results and all(r["passed"] for r in results)

    ok = passed_all("verify") and passed_all("lemma")
    elapsed = time.time() - t0
    record_acceptance(
        2,
        f"verify and lemma sweeps pass for every row through 167 ({elapsed:.0f}s < 300s)",
        ok and elapsed < 300.0,
    )


def test_03_recurrence_equals_direct_build():
    ok = True
    p = build_product(ProductSpec.main(0))
    for n in range(1, 41):
        p = recurrence_step(p, n)
        ok = ok and p == build_product(ProductSpec.main(n))
    record_acceptance(3, "recurrence chain equals direct build for n <= 40", ok)


def test_04_mass_identities():
    ok = True
    p = build_product(ProductSpec.main(0))
    for n in range(168):
        if n:
            p = recurrence_step(p, n)
        ok = ok and evaluate_at_one(p) == 4 ** (n + 1)
        ok = ok and evaluate_at_minus_one(p) == 0
    record_acceptance(4, "masses at q=1 and q=-1 are exact for n <= 167", ok)


def test_05_integral_reconstruction():
    t0 = time.time()
    reports = reconstruction_sweep(8)
    ok = len(reports) == 9 and all(r.passed for r in reports)
    elapsed = time.time() - t0
    record_acceptance(
        5,
        f"quadrature rebuilds every coefficient for n <= 8 within 1e-6 ({elapsed:.0f}s < 120s)",
        ok and elapsed < 120.0,
    )


def test_06_comparison_factor_chain():
    ok = 0.849 < f_value(168) < 0.851
    # Strict decrease of f: via doubles while the value stays safely
    # inside normal range, via the log form over the whole span (the
    # exponential factor underflows past n ~ 4572).
    prev_f = f_value(168)
    prev_log = f_log(168)
    for n in range(169, 5001):
        cur_log = f_log(n)
        ok = ok and cur_log < prev_log
        cur_f = f_value(n)
        if min(cur_f, prev_f) > 1e-290:
            ok = ok and cur_f < prev_f
        prev_f, prev_log = cur_f, cur_log
        ok = ok and f_log_derivative(n) < -0.13
    ok = ok and f_log_derivative(168) < -0.13
    record_acceptance(
        6, "f(168) sits in (0.849, 0.851); f decreasing and log-slope < -0.13 to n=5000", ok
    )


def test_07_envelope_certification():
    ok = True
    for n in (168, 300, 1000, 5000):
        cert = certify_E_bound(n, 20000)
        ok = ok and cert.passed and cert.min_margin > cert.error_budget
        for blob in cert.detail["branches"].values():
            ok = ok and blob["min_margin"] > blob["error_budget"]
    record_acceptance(
        7, "exponent envelope and both branch constants certified at four sizes", ok
    )


def test_08_gamma_tail_anchors():
    ok = abs(gamma_tail(0.0) - GAMMA_THREE_HALVES) < 1e-9
    x_star = GAUSSIAN_RATE * 168**3 / (3 * 168 + 2) ** 2
    ok = ok and gamma_tail(x_star) <= 1.29e-30
    record_acceptance(8, "gamma tail exact at 0 and below 1.29e-30 at the cutoff", ok)


def test_09_trig_suite():
    ok = True
    for cert in sweep_identity_residuals(1000):
        ok = ok and cert.passed and cert.detail["max_abs_residual"] <= 1e-9
    for cert in sweep_inequality_margins(10000):
        ok = ok and cert.passed and cert.detail["raw_min_margin"] >= -1e-12
    record_acceptance(
        9, "identity residuals within 1e-9 and inequality margins above -1e-12", ok
    )


def test_10_sign_accord():
    # The theta kernel is the derivative of the smoothed coefficient
    # curve at m, not the difference a(m) - a(m-1). For n <= 12 its
    # resolved sign disagrees with the exact layer only at n=5, m=49.
    by_n = {r.n: r for r in sign_accord_sweep(12)}
    sweep_ok = all(r.passed for n, r in by_n.items() if n != 5)
    sweep_ok = sweep_ok and not by_n[5].passed and by_n[5].first_violation == 49

    # That dip is a property of the kernel, not a quadrature error: the
    # exact integral pi * r is negative and the quadrature lands on it.
    row = oracles.naive_product(oracles.main_factors(5))
    r = oracles.theta_kernel_over_pi(row, 10)
    dip = quad_I(5, 10, 0.0, math.pi / 2)
    dip_ok = (
        r < 0
        and abs(dip.value - math.pi * float(r)) <= dip.abs_error_estimate
        and row[49] - row[48] == 1
    )

    # cos(mu t) - cos((mu+2) t) = 2 sin(t) sin((mu+1) t), so the
    # difference kernel scaled by 2^(2n+4)/pi is a(m) - a(m-1) itself;
    # its top frequency is degree + mu + 2.
    diff_ok = True
    resolved = zeros = 0
    worst = 0.0
    for n in range(13):
        row = oracles.naive_product(oracles.main_factors(n))
        degree = len(row) - 1
        for mu in range(1, 6 * n + 4):
            if (degree - mu) % 2:
                continue
            m = (degree - mu) // 2
            delta = row[m] - (row[m - 1] if m else 0)
            result = integrate_oscillatory(
                lambda th: np.sin(th) * np.sin((mu + 1) * th) * cosine_product(n, th),
                0.0, math.pi / 2, degree + mu + 2,
            )
            worst = max(worst, abs(2.0 ** (2 * n + 4) / math.pi * result.value - delta))
            if abs(result.value) > result.abs_error_estimate:
                resolved += 1
                sign = (result.value > 0) - (result.value < 0)
                diff_ok = diff_ok and sign == (delta > 0) - (delta < 0)
            else:
                zeros += 1
                diff_ok = diff_ok and delta == 0
    # each scaled value also rounds to its exact difference
    diff_ok = diff_ok and worst < 0.5

    desc = (
        f"theta-kernel signs match exact differences for n <= 12 except the exact "
        f"dip at n=5, m=49 (exact integral {math.pi * float(r):.4e}); difference kernel agrees "
        f"on {resolved} resolved offsets, {zeros} unresolved are zero (max err {worst:.1e})"
    )
    parts = {"sweep": sweep_ok, "dip": dip_ok, "difference kernel": diff_ok}
    broken = [name for name, ok in parts.items() if not ok]
    if broken:
        desc += f" (broken: {', '.join(broken)})"
    record_acceptance(10, desc, not broken)


def test_11_borwein_pattern():
    from qunimodal.checks import check_sign_pattern

    ok = True
    p = Polynomial([1])
    for n in range(61):
        p = mul_binomial(p, -1, 3 * n + 1)
        p = mul_binomial(p, -1, 3 * n + 2)
        ok = ok and check_sign_pattern(p, "+--").passed
    record_acceptance(11, "signed product keeps the +-- cycle for n <= 60", ok)


def test_12_neighboring_families():
    ok = True
    p = Polynomial([1])
    for k in range(1, 41):
        p = mul_binomial(p, 1, 2 * k - 1)
        if k >= 27:
            ok = ok and check_almost_unimodal(p, 3).passed
            if k == 27:
                bare = check_almost_unimodal(p, 0)
                # the q^2 dip: c1=1 > c2=0 < c3=1, witnessed at the rise
                ok = ok and not bare.passed and bare.first_violation == 3
                ok = ok and p.coeffs[1] > p.coeffs[2] < p.coeffs[3]
    for r in (3, 4):
        for n in range(11, 41):
            q = build_product(ProductSpec.almkvist(r, n))
            ok = ok and check_symmetric(q).passed and check_unimodal(q).passed
    record_acceptance(
        12, "odd-parts rows almost unimodal (trim 3, q^2 dip bare) and quotients unimodal", ok
    )
