"""Numerical certification for the bounds behind the unimodality proof.

The exact pipeline (``polynomials``, ``checks``) settles symmetry and
unimodality row by row at desk scale. This module carries the
complementary numerical evidence for the general argument:

* reconstruction of coefficients from a cosine product integral,
* the derivative kernel integral :func:`quad_I`, the slope of the
  smoothed coefficient curve, whose sign usually (not always) matches
  a single coefficient difference,
* a certified exponential envelope for the cosine product away from
  the origin (:func:`certify_E_bound`),
* the comparison factor f(n) that weighs the two lobes of the kernel
  integral against each other, and the incomplete gamma tail its
  derivation leans on,
* residual and margin sweeps for the trigonometric identities and
  pointwise inequalities everything above is built from.

Certificates pair every minimum margin with an explicit error budget;
a claim counts as certified only when the margin clears the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checks import CheckReport
from .errors import DomainViolation, GridTooCoarse, NearSingular, SingularPoint
from .polynomials import coeff, main_degree, main_rows

# Unused here, but bench/tracing.py wraps these names in this module; keep them bound.
from .polynomials import build_product, mul_binomial  # noqa: F401
from .quadrature import QuadratureResult, integrate_oscillatory

__all__ = [
    "BoundCertificate",
    "certify_E_bound",
    "coeff_by_integral",
    "cosine_product",
    "e_exponent",
    "envelope_exponent_grid",
    "f_log",
    "f_log_derivative",
    "f_sweep_certificates",
    "f_value",
    "gamma_tail",
    "gamma_tail_certificates",
    "i1_lower_bound",
    "i2_ratio_check",
    "integrand",
    "mu_of",
    "quad_I",
    "reconstruction_sweep",
    "sign_accord_sweep",
    "sweep_identity_residuals",
    "sweep_inequality_margins",
    "trig_identity_residual",
    "trig_inequality_margin",
]

# Quadratic decay rate of the cosine product near the origin: the
# envelope exp(-c n^3 theta^2) holds on the first lobe once n >= 168.
GAUSSIAN_RATE = 3.832

# Floor constant for the first lobe integral: I1 >= 0.0583 mu n^(-4.5).
# It is the ratio of the captured gamma tail mass (0.8862 minus a
# negligible cutoff correction) to twice the rate constant 2 * c^1.5,
# rounded down.
SMALL_LOBE_COEFF = 0.0583

# The certified envelope away from the origin is exp(-0.163 n - 0.031);
# its two constituent ranges carry the sharper constants below.
ENVELOPE_SLOPE = 0.163
ENVELOPE_INTERCEPT = 0.031
BRANCH_LOW_INTERCEPT = 0.343   # theta <= pi/6 supports exp(-0.163 n - 0.343)
BRANCH_HIGH_SLOPE = 0.187      # theta >  pi/6 supports exp(-0.187 n - 0.031)

# Acceptance window for the comparison factor at n = 168 and the
# ceiling its logarithmic derivative must stay under from there on.
F_168_FLOOR = 0.849
F_168_CEILING = 0.851
F_LOG_DERIVATIVE_CEILING = -0.13

# Pointwise gaussian minorant rate for cos on [-1, 1]: the largest
# valid rate, attained at the endpoint x = 1.
COS_GAUSSIAN_RATE = -math.log(math.cos(1.0))

# Value of the complete tail integral: integral_0^inf sqrt(v) e^-v dv.
GAMMA_THREE_HALVES = math.sqrt(math.pi) / 2.0

# The tail must drop below this once the gaussian lobe ends, for the
# n = 168 threshold value of its argument.
GAMMA_TAIL_CEILING = 1.29e-30

SIN_FLOOR = 1e-3

IDENTITY_IDS = ("sin2_sum", "sin4_sum")
INEQUALITY_IDS = ("sin_lb_24", "cos_lb_25", "sin_sandwich_26", "cos_ub_27", "ratio_27_1")
IDENTITY_RESIDUAL_TOL = 1e-9
INEQUALITY_SLACK = 1e-12


@dataclass
class BoundCertificate:
    """Grid evidence that one inequality holds with margin to spare.

    ``min_margin`` is the smallest observed slack of the claimed bound
    over the evaluation grid, ``argmin`` the point where it occurs, and
    ``error_budget`` an upper estimate for the numerical error of the
    evaluation itself. ``passed`` requires the margin to clear the
    budget, not merely to be positive.
    """

    bound_id: str
    grid_lo: float
    grid_hi: float
    grid_points: int
    min_margin: float
    argmin: float
    error_budget: float
    passed: bool
    n: int | None = None
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out: dict = {
            "bound_id": self.bound_id,
            "grid": {"lo": self.grid_lo, "hi": self.grid_hi, "points": self.grid_points},
            "min_margin": self.min_margin,
            "argmin": self.argmin,
            "error_budget": self.error_budget,
            "passed": self.passed,
        }
        if self.n is not None:
            out["n"] = self.n
        if self.detail:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# integral representation


def cosine_product(n: int, theta):
    """prod_{k=0}^{n} cos((3k+1) theta) cos((3k+2) theta), vectorized."""
    th = np.asarray(theta, dtype=float)
    out = np.ones_like(th)
    for k in range(n + 1):
        out = out * np.cos((3 * k + 1) * th)
        out = out * np.cos((3 * k + 2) * th)
    return out


def integrand(n: int, mu: float, theta):
    """Derivative kernel theta * sin(mu theta) * cosine_product(n, theta).

    Accepts a scalar or an array of angles; returns the same shape.
    """
    th = np.asarray(theta, dtype=float)
    vals = th * np.sin(mu * th) * cosine_product(n, th)
    if np.ndim(theta) == 0:
        return float(vals)
    return vals


def quad_I(n: int, mu: float, a: float, b: float, max_panels: int = 1_000_000) -> QuadratureResult:
    """Integrate the derivative kernel over [a, b] inside [0, pi/2].

    Over the full range this is (up to a positive prefactor) the
    derivative of the reconstruction integral with respect to a
    continuous coefficient index, taken at center offset mu; its sign
    is cross-checked against exact discrete differences in
    :func:`sign_accord_sweep`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= a < b <= math.pi / 2 + 1e-12):
        raise ValueError(f"limits must satisfy 0 <= a < b <= pi/2, got [{a}, {b}]")
    frequency = main_degree(n) + abs(mu)
    return integrate_oscillatory(lambda th: integrand(n, mu, th), a, b, frequency, max_panels)


# Largest row whose coefficients double precision can rebuild from the integral.
_RECONSTRUCTION_MAX_N = 12


def _reconstruction_guard(n: int, max_n: int) -> None:
    if n > max_n:
        raise GridTooCoarse(
            f"coefficient reconstruction above n={max_n} exceeds the double "
            f"precision budget (prefactor 2**{2 * n + 3})"
        )


def coeff_by_integral(
    n: int, m: int, max_n: int = _RECONSTRUCTION_MAX_N, max_panels: int = 1_000_000
) -> float:
    """Reconstruct one exact coefficient from the cosine product integral.

    The prefactor 2**(2n+3) amplifies quadrature and rounding noise, so
    reconstruction is only honest at small n; anything above ``max_n``
    raises :class:`GridTooCoarse` rather than returning digits that
    double precision cannot back.
    """
    d = main_degree(n)
    if not 0 <= m <= d:
        raise ValueError(f"m must lie in [0, {d}], got {m}")
    _reconstruction_guard(n, max_n)
    mu = d - 2 * m
    result = integrate_oscillatory(
        lambda th: np.cos(mu * th) * cosine_product(n, th),
        0.0,
        math.pi / 2,
        d + abs(mu),
        max_panels,
    )
    return (2.0 ** (2 * n + 3) / math.pi) * result.value


class MuInfo(NamedTuple):
    mu: int
    in_window: bool


def mu_of(n: int, m: int) -> MuInfo:
    """Center offset mu = degree - 2m, plus whether it sits in [0, 6n+3].

    The flag is equivalent to m lying in the central monotonicity
    window of row n.
    """
    mu = main_degree(n) - 2 * m
    return MuInfo(mu, 0 <= mu <= 6 * n + 3)


def i1_lower_bound(n: int, mu: float) -> float:
    """Certified floor 0.0583 mu n^(-4.5) for the first lobe (n >= 168)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    return SMALL_LOBE_COEFF * mu * float(n) ** -4.5


# ---------------------------------------------------------------------------
# envelope exponent


def e_exponent(n: int, theta: float) -> float:
    """Exponent of the certified envelope for |cosine_product|.

    Combines the closed forms of sum sin^2 and sum sin^4 over both
    residue classes of the product into a single exponent; the envelope
    itself is exp(e_exponent). Scalar form of
    :func:`envelope_exponent_grid`; raises :class:`SingularPoint` when
    one of the sine denominators vanishes exactly.
    """
    values, _ = envelope_exponent_grid(n, np.array([theta], dtype=float))
    return float(values[0])


def envelope_exponent_grid(n: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The envelope exponent on a grid plus a per-point rounding error bound.

    The error model charges each of the four ratio terms a few ulps of
    its numerator argument divided by its denominator magnitude; the
    result is conservative but cheap, and it is what certificates quote
    as their error budget.
    """
    s1 = np.sin(thetas)
    s2 = np.sin(2.0 * thetas)
    s3 = np.sin(3.0 * thetas)
    s6 = np.sin(6.0 * thetas)
    if (s1 == 0.0).any() or (s2 == 0.0).any() or (s3 == 0.0).any() or (s6 == 0.0).any():
        raise SingularPoint("a sine denominator vanished on the evaluation grid")
    values = (
        -11.0 * (n + 1) / 16.0
        + (3.0 / 16.0) * np.sin((6 * n + 5) * thetas) / s1
        - (1.0 / 64.0) * np.sin((12 * n + 10) * thetas) / s2
        - (3.0 / 16.0) * np.sin((6 * n + 3) * thetas) / s3
        + (1.0 / 64.0) * np.sin((12 * n + 6) * thetas) / s6
    )
    eps = float(np.finfo(float).eps)
    errors = 4.0 * eps * (
        (3.0 / 16.0) * (1.0 + (6 * n + 5) * thetas) / np.abs(s1)
        + (1.0 / 64.0) * (1.0 + (12 * n + 10) * thetas) / np.abs(s2)
        + (3.0 / 16.0) * (1.0 + (6 * n + 3) * thetas) / np.abs(s3)
        + (1.0 / 64.0) * (1.0 + (12 * n + 6) * thetas) / np.abs(s6)
    )
    return values, errors


def certify_E_bound(
    n: int,
    grid_points: int = 20000,
    *,
    slope: float = ENVELOPE_SLOPE,
    intercept: float = ENVELOPE_INTERCEPT,
    singular_tol: float = 1e-12,
) -> BoundCertificate:
    """Certify e_exponent <= -slope*n - intercept on [pi/(6n+4), pi/2].

    Grid points whose sine denominators come within ``singular_tol`` of
    zero are nudged by half a grid step before evaluation (in practice
    this only fires at theta = pi/2, where sin(2 theta) is a rounding
    error away from zero). The two constituent ranges are additionally
    certified against their own sharper constants and reported under
    ``detail["branches"]``; the headline margin is the overall bound's.
    """
    if n < 168:
        raise ValueError("the envelope bound is claimed for n >= 168 only")
    if grid_points < 1000:
        raise ValueError("certification needs at least 1000 grid points")
    lo = math.pi / (6 * n + 4)
    hi = math.pi / 2
    thetas = np.linspace(lo, hi, grid_points)
    step = (hi - lo) / (grid_points - 1)
    for _ in range(3):
        near = np.zeros(grid_points, dtype=bool)
        for mult in (1.0, 2.0, 3.0, 6.0):
            near |= np.abs(np.sin(mult * thetas)) < singular_tol
        if not near.any():
            break
        shift = np.where(thetas + step / 2 <= hi, step / 2, -step / 2)
        thetas = np.where(near, thetas + shift, thetas)
    else:
        raise SingularPoint("grid perturbation failed to clear the sine zeros")
    values, errors = envelope_exponent_grid(n, thetas)
    margins = (-slope * n - intercept) - values
    worst = int(np.argmin(margins))
    budget = float(errors.max())
    passed = bool(margins[worst] > budget)
    branches: dict = {}
    low_mask = thetas <= math.pi / 6
    for name, mask, branch_slope, branch_intercept in (
        ("theta_le_pi_over_6", low_mask, ENVELOPE_SLOPE, BRANCH_LOW_INTERCEPT),
        ("theta_gt_pi_over_6", ~low_mask, BRANCH_HIGH_SLOPE, ENVELOPE_INTERCEPT),
    ):
        sub_margins = (-branch_slope * n - branch_intercept) - values[mask]
        sub_errors = errors[mask]
        sub_thetas = thetas[mask]
        idx = int(np.argmin(sub_margins))
        sub_budget = float(sub_errors.max())
        branches[name] = {
            "slope": branch_slope,
            "intercept": branch_intercept,
            "min_margin": float(sub_margins[idx]),
            "argmin": float(sub_thetas[idx]),
            "error_budget": sub_budget,
            "points": int(mask.sum()),
        }
        passed = passed and bool(sub_margins[idx] > sub_budget)
    return BoundCertificate(
        bound_id="envelope_exponent",
        grid_lo=lo,
        grid_hi=hi,
        grid_points=grid_points,
        min_margin=float(margins[worst]),
        argmin=float(thetas[worst]),
        error_budget=budget,
        passed=passed,
        n=n,
        detail={"slope": slope, "intercept": intercept, "branches": branches},
    )


# ---------------------------------------------------------------------------
# comparison factor and gamma tail


def f_value(n: float) -> float:
    """Comparison factor weighing the oscillatory lobe against the first.

    f(n) = pi^3 n^4.5 / (4 * 0.0583) * (1/2 - 1/(6n+4)) * exp(-0.163 n - 0.031).
    Underflows to 0.0 for n beyond roughly 4650; use :func:`f_log` there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        math.pi ** 3
        * float(n) ** 4.5
        / (4.0 * SMALL_LOBE_COEFF)
        * (0.5 - 1.0 / (6.0 * n + 4.0))
        * math.exp(-ENVELOPE_SLOPE * n - ENVELOPE_INTERCEPT)
    )


def f_log(n: float) -> float:
    """log of :func:`f_value`, stable far past its underflow point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        3.0 * math.log(math.pi)
        + 4.5 * math.log(n)
        - math.log(4.0 * SMALL_LOBE_COEFF)
        + math.log(0.5 - 1.0 / (6.0 * n + 4.0))
        - ENVELOPE_SLOPE * n
        - ENVELOPE_INTERCEPT
    )


def f_log_derivative(n):
    """d/dn log f = 4.5/n + 6/((3n+1)(6n+4)) - 0.163, for a scalar or an array.

    Negative from n = 168 on and falling toward -0.163, so f itself is
    strictly decreasing on the certified range.
    """
    if np.any(np.asarray(n) < 1):
        raise ValueError("n must be >= 1")
    return 4.5 / n + 6.0 / ((3.0 * n + 1.0) * (6.0 * n + 4.0)) - ENVELOPE_SLOPE


def gamma_tail(x: float) -> float:
    """integral_x^inf sqrt(v) exp(-v) dv, the upper incomplete gamma at 3/2.

    A power series handles x < 2.5 and a Lentz continued fraction the
    rest; both run to relative machine precision. The value underflows
    to 0.0 once exp(-x + 1.5 log x) does (x beyond roughly 745).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return GAMMA_THREE_HALVES
    a = 1.5
    front = math.exp(-x + a * math.log(x))
    if x < a + 1.0:
        total = 1.0 / a
        term = total
        for k in range(1, 200):
            term *= x / (a + k)
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        else:
            raise RuntimeError("gamma tail series failed to converge")
        return GAMMA_THREE_HALVES - total * front
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise RuntimeError("gamma tail continued fraction failed to converge")
    return front * h


def gamma_tail_certificates() -> list[BoundCertificate]:
    """Anchor values of the tail: the complete integral and the cutoff.

    The cutoff argument is the value the gaussian lobe analysis feeds in
    at n = 168, namely 3.832 * 168^3 / (3*168 + 2)^2.
    """
    at_zero = gamma_tail(0.0)
    margin_zero = 1e-9 - abs(at_zero - GAMMA_THREE_HALVES)
    x_star = GAUSSIAN_RATE * 168 ** 3 / float(3 * 168 + 2) ** 2
    at_star = gamma_tail(x_star)
    budget_star = 2e-6 * at_star
    margin_star = GAMMA_TAIL_CEILING - at_star
    return [
        BoundCertificate(
            bound_id="gamma_tail_at_zero",
            grid_lo=0.0,
            grid_hi=0.0,
            grid_points=1,
            min_margin=float(margin_zero),
            argmin=0.0,
            error_budget=0.0,
            passed=bool(margin_zero > 0.0),
            detail={"value": at_zero, "target": GAMMA_THREE_HALVES},
        ),
        BoundCertificate(
            bound_id="gamma_tail_at_cutoff",
            grid_lo=float(x_star),
            grid_hi=float(x_star),
            grid_points=1,
            min_margin=float(margin_star),
            argmin=float(x_star),
            error_budget=float(budget_star),
            passed=bool(margin_star > budget_star),
            detail={"value": at_star, "ceiling": GAMMA_TAIL_CEILING, "x": float(x_star)},
        ),
    ]


def f_sweep_certificates(n_lo: int = 168, n_hi: int = 5000) -> list[BoundCertificate]:
    """Window at 168, strict decrease, and the log derivative ceiling.

    The decrease certificate works on log f so the sweep stays honest
    past the point where f itself underflows double precision.
    """
    if not 168 <= n_lo < n_hi:
        raise ValueError("sweep range must satisfy 168 <= n_lo < n_hi")
    ns = np.arange(n_lo, n_hi + 1, dtype=float)
    logs = np.array([f_log(v) for v in ns])
    derivs = f_log_derivative(ns)
    f168 = f_value(168)
    window_margin = min(F_168_CEILING - f168, f168 - F_168_FLOOR)
    certificates = [
        BoundCertificate(
            bound_id="f_168_window",
            grid_lo=168.0,
            grid_hi=168.0,
            grid_points=1,
            min_margin=float(window_margin),
            argmin=168.0,
            error_budget=1e-12,
            passed=bool(window_margin > 1e-12),
            n=168,
            detail={"f_168": f168, "window": [F_168_FLOOR, F_168_CEILING]},
        )
    ]
    decreases = logs[:-1] - logs[1:]
    idx = int(np.argmin(decreases))
    certificates.append(
        BoundCertificate(
            bound_id="f_strictly_decreasing",
            grid_lo=float(n_lo),
            grid_hi=float(n_hi),
            grid_points=len(ns),
            min_margin=float(decreases[idx]),
            argmin=float(ns[idx]),
            error_budget=1e-9,
            passed=bool(decreases[idx] > 1e-9),
            detail={"metric": "decrease of log f between consecutive n"},
        )
    )
    dmax = int(np.argmax(derivs))
    ceiling_margin = float(F_LOG_DERIVATIVE_CEILING - derivs[dmax])
    certificates.append(
        BoundCertificate(
            bound_id="f_log_derivative_ceiling",
            grid_lo=float(n_lo),
            grid_hi=float(n_hi),
            grid_points=len(ns),
            min_margin=ceiling_margin,
            argmin=float(ns[dmax]),
            error_budget=1e-12,
            passed=bool(ceiling_margin > 1e-12),
            detail={
                "ceiling": F_LOG_DERIVATIVE_CEILING,
                "max_log_derivative": float(derivs[dmax]),
            },
        )
    )
    return certificates


# ---------------------------------------------------------------------------
# trigonometric identities and inequalities


_SPLITTER = 134217729.0  # 2**27 + 1


def _sin_multiple(k: int, x: float) -> float:
    """sin(k x) for integer k without the k*x product rounding error.

    Splits x so k times the head is exact in double precision, then
    corrects with the tail through the addition formula. Keeps the
    closed forms honest at k around 2e4, where a plain product already
    carries a few 1e-12 of absolute angle error.
    """
    if k > 1 << 25:
        return math.sin(k * x)
    t = _SPLITTER * x
    head = t - (t - x)
    tail = x - head
    big = k * head
    small = k * tail
    return math.sin(big) * math.cos(small) + math.cos(big) * math.sin(small)


def trig_identity_residual(identity: str, n: int, x: float) -> float:
    """Closed form minus direct sum for the sine power identities.

    sin2_sum: sum_{k=1}^{n} sin^2(kx) = n/2 - sin((2n+1)x)/(4 sin x) + 1/4
    sin4_sum: sum_{k=1}^{n} sin^4(kx) = 3n/8 - sin((2n+1)x)/(4 sin x)
              + sin((2n+1) 2x)/(16 sin 2x) + 3/16

    Raises :class:`NearSingular` when a denominator sine is below the
    1e-3 floor the residual contract is stated for.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sx = math.sin(x)
    if abs(sx) < SIN_FLOOR:
        raise NearSingular(f"|sin x| = {abs(sx):.2e} is below the {SIN_FLOOR} floor")
    if identity == "sin2_sum":
        closed = 0.5 * n - _sin_multiple(2 * n + 1, x) / (4.0 * sx) + 0.25
        direct = math.fsum(math.sin(k * x) ** 2 for k in range(1, n + 1))
    elif identity == "sin4_sum":
        s2x = math.sin(2.0 * x)
        if abs(s2x) < SIN_FLOOR:
            raise NearSingular(f"|sin 2x| = {abs(s2x):.2e} is below the {SIN_FLOOR} floor")
        closed = (
            0.375 * n
            - _sin_multiple(2 * n + 1, x) / (4.0 * sx)
            + _sin_multiple(2 * n + 1, 2.0 * x) / (16.0 * s2x)
            + 0.1875
        )
        direct = math.fsum(math.sin(k * x) ** 4 for k in range(1, n + 1))
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return closed - direct


def trig_inequality_margin(inequality: str, point) -> float:
    """Slack of one pointwise inequality; negative means violated.

    sin_lb_24        sin x >= x exp(-x^2/3)              for 0 <= x <= 2
    cos_lb_25        cos x >= exp(-rate x^2)             for |x| <= 1
    sin_sandwich_26  x - x^3/6 <= sin x <= x             for x >= 0
    cos_ub_27        |cos x| <= exp(-s^2/2 - s^4/4)      s = sin x, any x
    ratio_27_1       |sin(n x)| <= n |sin x|             point = (n, x)

    Out-of-domain arguments raise :class:`DomainViolation`.
    """
    if inequality == "ratio_27_1":
        n, x = point
        n = int(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        sx = math.sin(x)
        if sx == 0.0:
            raise DomainViolation("sin x vanishes, the ratio bound needs sin x != 0")
        return n - abs(math.sin(n * x) / sx)
    x = float(point)
    if inequality == "sin_lb_24":
        if not 0.0 <= x <= 2.0:
            raise DomainViolation(f"x={x} outside [0, 2]")
        return math.sin(x) - x * math.exp(-x * x / 3.0)
    if inequality == "cos_lb_25":
        if not -1.0 <= x <= 1.0:
            raise DomainViolation(f"x={x} outside [-1, 1]")
        return math.cos(x) - math.exp(-COS_GAUSSIAN_RATE * x * x)
    if inequality == "sin_sandwich_26":
        if x < 0.0:
            raise DomainViolation(f"x={x} is negative")
        sx = math.sin(x)
        return min(sx - (x - x ** 3 / 6.0), x - sx)
    if inequality == "cos_ub_27":
        s = math.sin(x)
        return math.exp(-0.5 * s * s - 0.25 * s ** 4) - abs(math.cos(x))
    raise ValueError(f"unknown inequality {inequality!r}")


def sweep_identity_residuals(
    samples: int = 1000, seed: int = 20260822, n_cap: int = 10_000
) -> list[BoundCertificate]:
    """Random (n, x) sweep of both identities against the 1e-9 residual bound.

    Sampling is seeded rather than adversarial: x is uniform on
    [1e-3, pi - 1e-3] with redraws below the sine floor, n uniform on
    [1, n_cap].
    """
    rng = np.random.default_rng(seed)
    certificates = []
    for identity in IDENTITY_IDS:
        worst = -1.0
        worst_x = 0.0
        drawn = 0
        while drawn < samples:
            n = int(rng.integers(1, n_cap + 1))
            x = float(rng.uniform(1e-3, math.pi - 1e-3))
            if abs(math.sin(x)) < SIN_FLOOR:
                continue
            if identity == "sin4_sum" and abs(math.sin(2.0 * x)) < SIN_FLOOR:
                continue
            drawn += 1
            residual = abs(trig_identity_residual(identity, n, x))
            if residual > worst:
                worst = residual
                worst_x = x
        certificates.append(
            BoundCertificate(
                bound_id=f"identity_residual_{identity}",
                grid_lo=1e-3,
                grid_hi=math.pi - 1e-3,
                grid_points=samples,
                min_margin=float(IDENTITY_RESIDUAL_TOL - worst),
                argmin=worst_x,
                error_budget=0.0,
                passed=bool(worst < IDENTITY_RESIDUAL_TOL),
                detail={"max_abs_residual": worst, "seed": seed, "n_cap": n_cap},
            )
        )
    return certificates


def sweep_inequality_margins(points: int = 10_000) -> list[BoundCertificate]:
    """Dense-grid margins for the five pointwise inequalities.

    Each certificate claims margin >= -1e-12; the slack absorbs the
    rounding at genuine equality points (x = 0 for the sine bounds,
    x = +-1 for the cosine minorant), and the raw minimum is kept in
    the detail payload.
    """
    if points < 10:
        raise ValueError("need at least 10 grid points")
    certificates = []
    for inequality in INEQUALITY_IDS:
        if inequality == "sin_lb_24":
            xs = np.linspace(0.0, 2.0, points)
            margins = np.sin(xs) - xs * np.exp(-xs * xs / 3.0)
        elif inequality == "cos_lb_25":
            xs = np.linspace(-1.0, 1.0, points)
            margins = np.cos(xs) - np.exp(-COS_GAUSSIAN_RATE * xs * xs)
        elif inequality == "sin_sandwich_26":
            xs = np.linspace(0.0, 4.0 * math.pi, points)
            s = np.sin(xs)
            margins = np.minimum(s - (xs - xs ** 3 / 6.0), xs - s)
        elif inequality == "cos_ub_27":
            xs = np.linspace(0.0, 4.0 * math.pi, points)
            s = np.sin(xs)
            margins = np.exp(-0.5 * s * s - 0.25 * s ** 4) - np.abs(np.cos(xs))
        else:  # ratio_27_1: small n sweep, x clear of the sine zeros
            per_n = max(2, points // 10)
            base = np.linspace(1.2e-3, math.pi - 1.2e-3, per_n)
            blocks = []
            for n in range(2, 12):
                blocks.append(n - np.abs(np.sin(n * base) / np.sin(base)))
            margins = np.concatenate(blocks)
            xs = np.tile(base, 10)
        idx = int(np.argmin(margins))
        raw = float(margins[idx])
        certificates.append(
            BoundCertificate(
                bound_id=f"inequality_margin_{inequality}",
                grid_lo=float(xs.min()),
                grid_hi=float(xs.max()),
                grid_points=int(len(margins)),
                min_margin=float(raw + INEQUALITY_SLACK),
                argmin=float(xs[idx]),
                error_budget=0.0,
                passed=bool(raw > -INEQUALITY_SLACK),
                detail={"raw_min_margin": raw, "slack": INEQUALITY_SLACK},
            )
        )
    return certificates


# ---------------------------------------------------------------------------
# lobe comparison and exact cross-checks


def i2_ratio_check(n: int, mu: int, max_panels: int = 2_000_000) -> BoundCertificate:
    """Certify |I2| <= f(n) I1 for one center offset mu.

    I1 is the derivative kernel integral over [0, pi/(6n+4)] and I2 the
    remainder up to pi/2. For n >= 168 the certificate additionally
    checks I1 against :func:`i1_lower_bound`. mu = 0 makes the kernel
    vanish identically; the certificate then passes vacuously with zero
    margins, flagged in the detail payload. Checks at n < 168 or at
    offsets that do not correspond to a coefficient difference are
    performed all the same but flagged as exploratory.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    split = math.pi / (6 * n + 4)
    flags = []
    if n < 168:
        flags.append("exploratory_below_168")
    degree = main_degree(n)
    if not (0 < mu <= 6 * n + 3) or (degree - mu) % 2 != 0:
        flags.append("non_coefficient_probe")
    if mu == 0:
        return BoundCertificate(
            bound_id="lobe_ratio",
            grid_lo=0.0,
            grid_hi=math.pi / 2,
            grid_points=0,
            min_margin=0.0,
            argmin=split,
            error_budget=0.0,
            passed=True,
            n=n,
            detail={"mu": 0, "vacuous": True, "flags": flags},
        )
    first = quad_I(n, mu, 0.0, split, max_panels)
    rest = quad_I(n, mu, split, math.pi / 2, max_panels)
    factor = f_value(n)
    margins = [factor * first.value - abs(rest.value)]
    budgets = [factor * first.abs_error_estimate + rest.abs_error_estimate]
    detail: dict = {
        "mu": mu,
        "i1": first.value,
        "i2": rest.value,
        "f_n": factor,
        "i1_panels": first.panels,
        "i2_panels": rest.panels,
    }
    if n >= 168:
        floor = i1_lower_bound(n, mu)
        margins.append(first.value - floor)
        budgets.append(first.abs_error_estimate)
        detail["i1_lower_bound"] = floor
    if flags:
        detail["flags"] = flags
    min_margin = min(margins)
    budget = max(budgets)
    return BoundCertificate(
        bound_id="lobe_ratio",
        grid_lo=0.0,
        grid_hi=math.pi / 2,
        grid_points=first.panels + rest.panels,
        min_margin=float(min_margin),
        argmin=float(split),
        error_budget=float(budget),
        passed=bool(min_margin > budget),
        n=n,
        detail=detail,
    )


def reconstruction_sweep(n_max: int = 8, max_panels: int = 1_000_000) -> list[CheckReport]:
    """Compare coeff_by_integral with the exact expansion for n <= n_max.

    One report per n; ``passed`` means every coefficient of the row came
    back within 1e-6 relative error. Like :func:`coeff_by_integral`, it
    stops at n = 12: a larger ``n_max`` raises :class:`GridTooCoarse`
    before any quadrature runs.
    """
    _reconstruction_guard(n_max, _RECONSTRUCTION_MAX_N)
    reports = []
    for n, p in enumerate(main_rows(n_max)):
        worst = -1.0
        worst_m = 0
        for m in range(main_degree(n) + 1):
            exact = p.coeffs[m]
            approx = coeff_by_integral(n, m, max_panels=max_panels)
            rel = abs(approx - exact) / exact
            if rel > worst:
                worst = rel
                worst_m = m
        ok = worst <= 1e-6
        reports.append(
            CheckReport(
                "integral_reconstruction",
                ok,
                first_violation=None if ok else worst_m,
                n=n,
                details=f"max_rel_err={worst:.3e} at m={worst_m}",
            )
        )
    return reports


def sign_accord_sweep(n_max: int = 12, max_panels: int = 1_000_000) -> list[CheckReport]:
    """Check the sign of quad_I against exact coefficient differences.

    For every valid center offset of every row up to n_max the full
    range integral is computed; whenever its magnitude clears its own
    error estimate and the exact difference a_n(m) - a_n(m-1) is
    nonzero, the two signs are compared. Gated-out and zero-difference
    offsets are counted as skipped, never as evidence.

    The theta kernel is the derivative of the smoothed coefficient
    curve at m, not the discrete difference, so agreement is not
    guaranteed: at n=5, m=49 (mu=10) the exact integral is negative
    while a_5(49) - a_5(48) = +1, and that row's report fails with
    ``first_violation == 49``. The discrete difference has its own
    kernel, sin(theta) sin((mu+1) theta).
    """
    reports = []
    for n, p in enumerate(main_rows(n_max)):
        degree = main_degree(n)
        checked = 0
        skipped = 0
        violation = None
        for mu in range(1, 6 * n + 4):
            if (degree - mu) % 2:
                continue
            m = (degree - mu) // 2
            result = quad_I(n, mu, 0.0, math.pi / 2, max_panels)
            if abs(result.value) <= result.abs_error_estimate:
                skipped += 1
                continue
            delta = coeff(p, m) - coeff(p, m - 1)
            if delta == 0:
                skipped += 1
                continue
            checked += 1
            if (result.value > 0) != (delta > 0):
                violation = m
                break
        reports.append(
            CheckReport(
                "sign_accord",
                violation is None,
                first_violation=violation,
                n=n,
                details=f"checked={checked} skipped={skipped}",
            )
        )
    return reports
