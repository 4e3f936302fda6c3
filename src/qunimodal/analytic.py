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

The lobe ratio (:func:`lobe_ratio_certificates`, :func:`i1_lower_bound`),
f(n) (:func:`f_value`, :func:`f_sweep_certificates`) and the gamma tail
are statements about the paper's theta-kernel theta*sin(mu*theta)*P(theta),
whose sign is not the coefficient difference (n = 5, m = 49). They
cross-check the paper; they are not premises of unimodality.

The cosine product behind every integral rotates a table of 16 factor
cosines by block starts (:func:`cosine_product`): each cosine carries
the rounding of two angles, 6*16*m*theta and (6j+3)*theta, plus a few
ulps from the rotation, and the first block of 16 factors is the plain
fold bit for bit.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .checks import CheckReport
from .errors import DomainViolation, GridTooCoarse, NearSingular, SingularPoint
from .polynomials import Polynomial, ProductSpec, checked_rows, coeff, main_degree, main_window

# Unused here, but bench/tracing.py wraps these names in this module; keep them bound.
from .polynomials import build_product, mul_binomial  # noqa: F401
from .quadrature import QuadratureResult, _exact_parts, integrate_oscillatory

__all__ = [
    "BoundCertificate",
    "MuInfo",
    "certify_E_bound",
    "coeff_by_integral",
    "cosine_product",
    "e_exponent",
    "envelope_exponent_grid",
    "envelope_grid",
    "f_log",
    "f_log_derivative",
    "f_sweep_certificates",
    "f_value",
    "gamma_tail",
    "gamma_tail_certificates",
    "i1_lower_bound",
    "i2_ratio_check",
    "integrand",
    "lobe_ratio_certificates",
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

# cosine_product rotates a table of this many factor angles per block and
# takes at most this many angles at a time.
_COSINE_BLOCK = 16
_COSINE_SLICE = 1024

SIN_FLOOR = 1e-3
# Envelope grid points with a sine denominator closer to zero than this are moved.
ENVELOPE_SINGULAR_TOL = 1e-12

IDENTITY_IDS = ("sin2_sum", "sin4_sum")
INEQUALITY_IDS = ("sin_lb_24", "cos_lb_25", "sin_sandwich_26", "cos_ub_27", "ratio_27_1")
IDENTITY_RESIDUAL_TOL = 1e-9
IDENTITY_N_CAP = 10_000
INEQUALITY_SLACK = 1e-12


@dataclass
class BoundCertificate:
    """Grid evidence that one inequality holds with margin to spare.

    ``min_margin`` is the smallest observed slack of the claimed bound
    over the evaluation grid, ``argmin`` the point where it occurs, and
    ``error_budget`` an upper estimate for the numerical error of the
    evaluation itself. ``passed`` requires the margin to clear the
    budget, not merely to be positive; it is worked out from the two when
    not given. Only the envelope (whose branches must pass too) and the
    vacuous mu = 0 lobe certificate give it.
    """

    bound_id: str
    grid_lo: float
    grid_hi: float
    grid_points: int
    min_margin: float
    argmin: float
    error_budget: float
    passed: bool | None = None
    n: int | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.passed is None:
            self.passed = bool(self.min_margin > self.error_budget)

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


def _at_point(bound_id: str, x: float, margin: float, budget: float, detail: dict,
              n: int | None = None) -> BoundCertificate:
    """A certificate checked at the single point ``x``."""
    x = float(x)
    return BoundCertificate(bound_id=bound_id, grid_lo=x, grid_hi=x, grid_points=1,
                            min_margin=float(margin), argmin=x, error_budget=float(budget),
                            n=n, detail=detail)


def _on_grid(bound_id: str, xs, margins, budget: float, detail: dict,
             points: int | None = None) -> BoundCertificate:
    """A certificate on the grid ``xs``: its least margin, at the first point that takes it.

    The grid spans min(xs)..max(xs); ``points`` is ``len(margins)`` unless given.
    """
    worst = int(np.argmin(margins))
    return BoundCertificate(bound_id=bound_id, grid_lo=float(np.min(xs)), grid_hi=float(np.max(xs)),
                            grid_points=len(margins) if points is None else points,
                            min_margin=float(margins[worst]), argmin=float(xs[worst]),
                            error_budget=float(budget), detail=detail)


# ---------------------------------------------------------------------------
# integral representation


def cosine_product(n: int, theta):
    """prod_{k=0}^{n} cos((3k+1) theta) cos((3k+2) theta), vectorized.

    Each pair of factors folds into one through the product-to-sum
    identity cos((3k+1) t) cos((3k+2) t) = (cos t + cos((6k+3) t)) / 2,
    so the product is 2^-(n+1) prod_k (cos t + cos((6k+3) t)). With
    k = Bm + j, B = ``_COSINE_BLOCK``, the cosine comes from one table of
    (6j+3) t, j < B, rotated by the block start 6Bmt:
    cos((6k+3) t) = cos(6Bmt) cos((6j+3) t) - sin(6Bmt) sin((6j+3) t).
    A point costs 1 + 2B + 2 floor(n/B) transcendentals (53 at n = 168)
    instead of n+2 (170). Each rotated cosine carries the rounding of the
    two angles 6Bmt and (6j+3)t, each an exact integer multiple of theta
    rounded once, plus a few ulps from the rotation. The first block is
    the plain fold bit for bit, and needs no sine table, so every n < B
    gives the plain fold's values.

    A folded factor reaches 2, so the exact scaling 2^-512 is applied
    after every 512 of them: the running product stays below 2^512 and
    never overflows, and for n < 511 only the final scaling is left.
    Angles are taken ``_COSINE_SLICE`` at a time, so the two tables take
    256 KB; every step is elementwise, so a value does not depend on its
    slice, nor on the thread that computes it. On the rotation path
    (n >= B), a call of more than one slice, in a process that may run on
    more than one CPU, starts one plain ``threading.Thread`` that shares
    its slices: each thread takes the next slice start from one iterator
    and writes its own part of the output (numpy drops the GIL inside
    each ufunc). The call joins the thread before it returns and re-raises
    its error, so no thread outlives the call, and it imports nothing that
    numpy has not: a ``concurrent.futures`` pool would load 12 more stdlib
    modules, about 1.7 MB of a process that compiles them (the first
    round of the ``lobe_ratio`` benchmark). Any other call starts no thread.
    """
    th = np.asarray(theta, dtype=float)
    out = np.empty_like(th)
    flat_th, flat_out = th.reshape(-1), out.reshape(-1)
    starts = iter(range(0, flat_th.size, _COSINE_SLICE))

    def drain():
        for start in starts:
            stop = start + _COSINE_SLICE
            flat_out[start:stop] = _cosine_product_slice(n, flat_th[start:stop])

    if n >= _COSINE_BLOCK and flat_th.size > _COSINE_SLICE and _cpu_count() > 1:
        failed: list[BaseException] = []

        def help_drain():
            try:
                drain()
            except BaseException as exc:  # re-raised by the caller below
                failed.append(exc)

        helper = threading.Thread(target=help_drain, name="cosine_product")
        helper.start()
        try:
            drain()
        finally:
            helper.join()  # waits for the helper's last slice
        if failed:
            raise failed[0]
    else:
        drain()
    np.ldexp(out, -((n + 1) % 512), out=out)
    return out[()]


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cosine_product_slice(n: int, th: np.ndarray) -> np.ndarray:
    """2^((n+1) % 512) cosine_product(n, th) for a 1-D slice of angles."""
    angles = np.multiply.outer(np.arange(3.0, 6 * min(n + 1, _COSINE_BLOCK) + 3, 6.0), th)
    c1 = np.cos(th)
    cos_j = np.cos(angles)
    factors = cos_j + c1
    out = np.multiply.reduce(factors, axis=0)
    if n < _COSINE_BLOCK:
        return out
    sin_j = np.sin(angles, out=angles)
    rotated = np.empty_like(angles)
    for m in range(1, n // _COSINE_BLOCK + 1):
        width = min(_COSINE_BLOCK, n + 1 - _COSINE_BLOCK * m)
        block_start = th * (6 * _COSINE_BLOCK * m)
        f, r = factors[:width], rotated[:width]
        np.multiply(cos_j[:width], np.cos(block_start), out=f)
        np.multiply(sin_j[:width], np.sin(block_start), out=r)
        f -= r
        f += c1
        out *= np.multiply.reduce(f, axis=0)
        if (_COSINE_BLOCK * m + width) % 512 == 0:
            np.ldexp(out, -512, out=out)
    return out


def integrand(n: int, mu, theta):
    """Derivative kernel theta * sin(mu theta) * cosine_product(n, theta).

    Accepts a scalar or an array of angles. ``mu`` is one offset, giving
    the shape of ``theta``, or a sequence of k offsets, giving k rows that
    share one evaluation of the cosine product.
    """
    th = np.asarray(theta, dtype=float)
    vals = _outer_wave(np.sin, mu, th, th * cosine_product(n, th))
    if vals.ndim == 0:
        return float(vals)
    return vals


def _outer_wave(wave, mu, th: np.ndarray, weight) -> np.ndarray:
    """wave(mu theta) * weight, in the one buffer of the outer product of mu and theta."""
    vals = np.asarray(np.multiply.outer(mu, th), dtype=float)
    wave(vals, out=vals)
    vals *= weight
    return vals


def quad_I(n: int, mu, a: float, b: float) -> QuadratureResult:
    """Integrate the derivative kernel over [a, b] inside [0, pi/2].

    Over the full range this is (up to a positive prefactor) the
    derivative of the reconstruction integral with respect to a
    continuous coefficient index, taken at center offset mu; its sign
    is cross-checked against exact discrete differences in
    :func:`sign_accord_sweep`. A sequence of offsets is integrated in one
    pass on the grid of the largest, with one value per offset.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= a < b <= math.pi / 2 + 1e-12):
        raise ValueError(f"limits must satisfy 0 <= a < b <= pi/2, got [{a}, {b}]")
    frequency = main_degree(n) + float(np.max(np.abs(mu)))
    return integrate_oscillatory(lambda th: integrand(n, mu, th), a, b, frequency)


# Largest row whose coefficients double precision can rebuild from the integral.
_RECONSTRUCTION_MAX_N = 12


def _reconstruction_guard(n: int) -> None:
    if n > _RECONSTRUCTION_MAX_N:
        raise GridTooCoarse(
            f"coefficient reconstruction above n={_RECONSTRUCTION_MAX_N} exceeds the double "
            f"precision budget (prefactor 2**{2 * n + 3})"
        )


def coeff_by_integral(n: int, m):
    """Reconstruct exact coefficients from the cosine product integral.

    ``m`` is one index, giving a float from the grid of its own offset
    mu = d - 2m, or a sequence of indices, giving an array with one value
    per index from a single pass on the grid of the largest |mu|. The
    prefactor 2**(2n+3) amplifies quadrature and rounding noise, so
    reconstruction is only honest at small n; anything above n = 12
    raises :class:`GridTooCoarse` rather than returning digits that
    double precision cannot back.
    """
    d = main_degree(n)
    ms = np.asarray(m)
    if ms.min() < 0 or ms.max() > d:
        raise ValueError(f"m must lie in [0, {d}], got {m}")
    _reconstruction_guard(n)
    mu = d - 2 * ms
    result = integrate_oscillatory(
        lambda th: _outer_wave(np.cos, mu, th, cosine_product(n, th)),
        0.0,
        math.pi / 2,
        d + float(np.max(np.abs(mu))),
    )
    return (2.0 ** (2 * n + 3) / math.pi) * result.value


class MuInfo(NamedTuple):
    mu: int
    in_window: bool


def mu_of(n: int, m: int) -> MuInfo:
    """Center offset mu = degree - 2m, plus whether m lies in :func:`main_window` (n).

    The flag is equivalent to mu sitting in [0, 6n+3].
    """
    return MuInfo(main_degree(n) - 2 * m, m in main_window(n))


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


def _envelope_terms(n: int) -> tuple[tuple[float, int, int], ...]:
    """The exponent's four ratio terms weight * sin(frequency theta) / sin(multiple theta)."""
    return (
        (3.0 / 16.0, 6 * n + 5, 1),
        (-1.0 / 64.0, 12 * n + 10, 2),
        (-3.0 / 16.0, 6 * n + 3, 3),
        (1.0 / 64.0, 12 * n + 6, 6),
    )


def envelope_exponent_grid(n: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The envelope exponent on a grid plus a per-point rounding error bound.

    The exponent is -11(n+1)/16 plus the ratio terms of
    :func:`_envelope_terms`. The error model charges each term a few ulps
    of its numerator argument divided by its denominator magnitude; the
    result is conservative but cheap, and it is what certificates quote
    as their error budget.
    """
    terms = _envelope_terms(n)
    denominators = [np.sin(multiple * thetas) for _, _, multiple in terms]
    if any((s == 0.0).any() for s in denominators):
        raise SingularPoint("a sine denominator vanished on the evaluation grid")
    values = -11.0 * (n + 1) / 16.0
    spread = 0.0
    for (weight, frequency, _), s in zip(terms, denominators):
        values = values + weight * np.sin(frequency * thetas) / s
        spread = spread + abs(weight) * (1.0 + frequency * thetas) / np.abs(s)
    errors = 4.0 * float(np.finfo(float).eps) * spread
    return values, errors


def envelope_grid(n: int, grid_points: int) -> np.ndarray:
    """The envelope certificate's grid on [pi/(6n+4), pi/2], clear of sine zeros.

    Points where a sine denominator comes within 1e-12 of zero are moved
    half a grid step inward (in practice this only fires at theta = pi/2,
    where sin(2 theta) is a rounding error away from zero).
    """
    if grid_points < 2:
        raise ValueError(f"the envelope grid needs at least 2 points, got {grid_points}")
    lo = math.pi / (6 * n + 4)
    hi = math.pi / 2
    thetas = np.linspace(lo, hi, grid_points)
    step = (hi - lo) / (grid_points - 1)
    for _ in range(3):
        near = np.zeros(grid_points, dtype=bool)
        for _, _, multiple in _envelope_terms(n):
            near |= np.abs(np.sin(multiple * thetas)) < ENVELOPE_SINGULAR_TOL
        if not near.any():
            return thetas
        shift = np.where(thetas + step / 2 <= hi, step / 2, -step / 2)
        thetas = np.where(near, thetas + shift, thetas)
    raise SingularPoint("grid perturbation failed to clear the sine zeros")


def _worst_margin(bound: float, values, errors, thetas) -> dict:
    """Smallest margin of ``values <= bound`` on a grid, its argmin, and the error budget."""
    margins = bound - values
    worst = int(np.argmin(margins))
    return {"min_margin": float(margins[worst]), "argmin": float(thetas[worst]),
            "error_budget": float(errors.max())}


def certify_E_bound(n: int, grid_points: int = 20000) -> BoundCertificate:
    """Certify e_exponent <= -ENVELOPE_SLOPE*n - ENVELOPE_INTERCEPT on :func:`envelope_grid`.

    The two constituent ranges are additionally certified against their
    own sharper constants and reported under ``detail["branches"]``; the
    headline margin is the overall bound's.
    """
    if n < 168:
        raise ValueError("the envelope bound is claimed for n >= 168 only")
    if grid_points < 1000:
        raise ValueError("certification needs at least 1000 grid points")
    thetas = envelope_grid(n, grid_points)
    values, errors = envelope_exponent_grid(n, thetas)
    headline = _worst_margin(-ENVELOPE_SLOPE * n - ENVELOPE_INTERCEPT, values, errors, thetas)
    branches: dict = {}
    low_mask = thetas <= math.pi / 6
    for name, mask, branch_slope, branch_intercept in (
        ("theta_le_pi_over_6", low_mask, ENVELOPE_SLOPE, BRANCH_LOW_INTERCEPT),
        ("theta_gt_pi_over_6", ~low_mask, BRANCH_HIGH_SLOPE, ENVELOPE_INTERCEPT),
    ):
        bound = -branch_slope * n - branch_intercept
        branches[name] = {
            "slope": branch_slope,
            "intercept": branch_intercept,
            "points": int(mask.sum()),
            **_worst_margin(bound, values[mask], errors[mask], thetas[mask]),
        }
    return BoundCertificate(
        bound_id="envelope_exponent",
        grid_lo=math.pi / (6 * n + 4),
        grid_hi=math.pi / 2,
        grid_points=grid_points,
        passed=all(w["min_margin"] > w["error_budget"] for w in (headline, *branches.values())),
        n=n,
        detail={"slope": ENVELOPE_SLOPE, "intercept": ENVELOPE_INTERCEPT, "branches": branches},
        **headline,
    )


# ---------------------------------------------------------------------------
# comparison factor and gamma tail


def f_value(n: float) -> float:
    """Comparison factor weighing the oscillatory lobe against the first.

    f(n) = pi^3 n^4.5 / (4 * 0.0583) * (1/2 - 1/(6n+4)) * exp(-0.163 n - 0.031).
    Underflows to 0.0 from n = 4572 on; use :func:`f_log` there.
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

    Closed form sqrt(x) exp(-x) + (sqrt(pi)/2) erfc(sqrt(x)) (DLMF 8.4.6,
    8.8.2), exactly sqrt(pi)/2 at x = 0. The value underflows to 0.0 once
    exp(-x) does (x beyond roughly 745.5).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    root = math.sqrt(x)
    return root * math.exp(-x) + GAMMA_THREE_HALVES * math.erfc(root)


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
        _at_point("gamma_tail_at_zero", 0.0, margin_zero, 0.0,
                  {"value": at_zero, "target": GAMMA_THREE_HALVES}),
        _at_point("gamma_tail_at_cutoff", x_star, margin_star, budget_star,
                  {"value": at_star, "ceiling": GAMMA_TAIL_CEILING, "x": float(x_star)}),
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
        _at_point("f_168_window", 168.0, window_margin, 1e-12,
                  {"f_168": f168, "window": [F_168_FLOOR, F_168_CEILING]}, n=168)
    ]
    certificates.append(_on_grid("f_strictly_decreasing", ns, logs[:-1] - logs[1:], 1e-9,
                                 {"metric": "decrease of log f between consecutive n"}, points=len(ns)))
    # Each derivative lies within a factor 2 of the ceiling, so every margin is exact
    # (Sterbenz) and the least margin sits at the largest derivative.
    certificates.append(_on_grid("f_log_derivative_ceiling", ns, F_LOG_DERIVATIVE_CEILING - derivs, 1e-12,
                                 {"ceiling": F_LOG_DERIVATIVE_CEILING, "max_log_derivative": float(derivs.max())}))
    return certificates


# ---------------------------------------------------------------------------
# trigonometric identities and inequalities


_SPLITTER = 134217729.0  # 2**27 + 1
_SINE_BLOCK = 128  # angles per row of the rotated sine table
_CHUNK_ROWS = 256  # rows of sines one direct-sum pass holds, 256 KB per buffer
_DRAW_BLOCK = 256  # accepted draws the identity sweep works out per call


def _sin_multiple(k, x):
    """(sin(k x), cos(k x)) for integer k and angle x, or arrays of them, without the k*x rounding error.

    Splits x so k times the head is exact in double precision, then
    corrects with the tail through the addition formulas: each value is
    within about 1 ulp of 1 (2**-52), where a plain k*x at k around 2e4
    carries a few 1e-12 of angle error. Feeds the closed forms and the
    two tables that :func:`_sine_rows` rotates into the direct sums.
    """
    if np.max(k) > 1 << 25:
        return np.sin(k * x), np.cos(k * x)
    t = _SPLITTER * x
    head = t - (t - x)
    tail = x - head
    big = k * head
    small = k * tail
    sin_big, cos_big, sin_small, cos_small = np.sin(big), np.cos(big), np.sin(small), np.cos(small)
    return sin_big * cos_small + cos_big * sin_small, cos_big * cos_small - sin_big * sin_small


def _sine_rows(ns: np.ndarray, xs: np.ndarray, buffers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows m of sin((mB + j) x) = sin(mBx) cos(jx) + cos(mBx) sin(jx), j < B = 128, for each draw (n, x).

    Both tables come from :func:`_sin_multiple`: about 4 (B + n/B)
    transcendentals per draw instead of 4n, each sine within a few ulps
    of 1 (2 * 2**-52 at n = 10,000), and for n < B bit-equal to sin(kx)
    from :func:`_sin_multiple` (the one block start is sin 0 = 0). Writes
    k = 0..n (zero past n) into ``buffers[0]``, with ``buffers[1]`` as
    scratch; returns those rows and each draw's first row.
    """
    counts = ns // _SINE_BLOCK + 1
    starts = np.cumsum(counts) - counts
    draw = np.repeat(np.arange(len(ns)), counts)
    sin_j, cos_j = _sin_multiple(np.arange(_SINE_BLOCK), xs[:, None])
    sin_m, cos_m = _sin_multiple(_SINE_BLOCK * (np.arange(len(draw)) - starts[draw]), xs[draw])
    sines, other = buffers[0, : len(draw)], buffers[1, : len(draw)]
    np.take(cos_j, draw, axis=0, out=sines)
    sines *= sin_m[:, None]
    np.take(sin_j, draw, axis=0, out=other)
    other *= cos_m[:, None]
    sines += other
    draw_of_pad, pad = np.nonzero(np.arange(_SINE_BLOCK) > (ns % _SINE_BLOCK)[:, None])
    sines[(starts + counts - 1)[draw_of_pad], pad] = 0.0
    return sines, starts


def _sine_power_sums(ns: np.ndarray, xs: np.ndarray, power: int,
                     buffers: np.ndarray | None = None) -> np.ndarray:
    """sum_{k=1}^{n} sin^power(kx), power 2 or 4, for each draw, each correctly rounded from its terms.

    Chunks of whole draws, at most ``_CHUNK_ROWS`` rows unless one draw is
    longer, go in order through ``buffers``: sines, powers and scratch, of
    rows of 128, allocated here if not given. ``_exact_parts`` splits each
    draw's terms into columns of the same exact sum, and one fsum rounds
    them once, so no sum depends on the chunk its draw shared.
    """
    counts, sums, lo = ns // _SINE_BLOCK + 1, [], 0
    if buffers is None:
        buffers = np.empty((3, max(_CHUNK_ROWS, counts.max()), _SINE_BLOCK))
    while lo < len(ns):
        hi = lo + max(1, int(np.searchsorted(np.cumsum(counts[lo:]), _CHUNK_ROWS, "right")))
        sines, starts = _sine_rows(ns[lo:hi], xs[lo:hi], buffers)
        terms, scratch = buffers[1, : len(sines)], buffers[2, : len(sines)]
        np.multiply(sines, sines, out=terms)
        if power == 4:
            terms *= terms
        sums += [math.fsum(parts) for parts in _exact_parts(terms, starts, scratch).tolist()]
        lo = hi
    return np.array(sums)


def _sines(n: int, x: float) -> np.ndarray:
    """sin(k x) for k = 1..n, one draw of :func:`_sine_rows`."""
    buffers = np.empty((2, n // _SINE_BLOCK + 1, _SINE_BLOCK))
    return _sine_rows(np.array([n]), np.array([x]), buffers)[0].ravel()[1 : n + 1].copy()


def _sine_power_sum(n: int, x: float, power: int) -> float:
    """sum_{k=1}^{n} sin^power(kx), one draw of :func:`_sine_power_sums`."""
    return float(_sine_power_sums(np.array([n]), np.array([x]), power)[0])


def _denominators(identity: str, x: float) -> list[float]:
    """sin x, and for sin4_sum sin 2x: the closed forms' denominators, NearSingular below the 1e-3 floor."""
    if identity not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity!r}")
    sines = [math.sin(x)] if identity == "sin2_sum" else [math.sin(x), math.sin(2.0 * x)]
    for name, sine in zip(("x", "2x"), sines):
        if abs(sine) < SIN_FLOOR:
            raise NearSingular(f"|sin {name}| = {abs(sine):.2e} is below the {SIN_FLOOR} floor")
    return sines


def _identity_residuals(identity: str, draws: list[tuple], buffers: np.ndarray | None = None) -> np.ndarray:
    """Closed form minus direct sum for each draw, a tuple of n, x and its :func:`_denominators`."""
    ns, xs, *sines = (np.array(column) for column in zip(*draws))
    spread = _sin_multiple(2 * ns + 1, xs)[0] / (4.0 * sines[0])
    if identity == "sin2_sum":
        return 0.5 * ns - spread + 0.25 - _sine_power_sums(ns, xs, 2, buffers)
    closed = 0.375 * ns - spread + _sin_multiple(2 * ns + 1, 2.0 * xs)[0] / (16.0 * sines[1]) + 0.1875
    return closed - _sine_power_sums(ns, xs, 4, buffers)


def trig_identity_residual(identity: str, n: int, x: float) -> float:
    """Closed form minus direct sum for the sine power identities.

    sin2_sum: sum_{k=1}^{n} sin^2(kx) = n/2 - sin((2n+1)x)/(4 sin x) + 1/4
    sin4_sum: sum_{k=1}^{n} sin^4(kx) = 3n/8 - sin((2n+1)x)/(4 sin x)
              + sin((2n+1) 2x)/(16 sin 2x) + 3/16

    One draw of the sweep's kernel: the direct sum rotates one block of
    sines (each within a few ulps) and adds their p-th powers exactly,
    rounding once, so it is within about p*n*4.4e-16 <= 2e-11 of the true
    sum for n <= 10,000, far below the 1e-9 bound. Raises
    :class:`NearSingular` when a denominator sine is below the 1e-3 floor
    the residual contract is stated for.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    draw = (n, x, *_denominators(identity, x))
    return float(_identity_residuals(identity, [draw])[0])


def _ratio_27_1(n, x):
    return n - np.abs(np.sin(n * x) / np.sin(x))


# Margin formula of each one-variable inequality, the closed domain it is
# claimed on, and the range its sweep covers.
_INEQUALITIES = {
    "sin_lb_24": (lambda x: np.sin(x) - x * np.exp(-x * x / 3.0), (0.0, 2.0), (0.0, 2.0)),
    "cos_lb_25": (lambda x: np.cos(x) - np.exp(-COS_GAUSSIAN_RATE * x * x), (-1.0, 1.0), (-1.0, 1.0)),
    "sin_sandwich_26": (
        lambda x: np.minimum(np.sin(x) - (x - x ** 3 / 6.0), x - np.sin(x)),
        (0.0, math.inf), (0.0, 4.0 * math.pi),
    ),
    "cos_ub_27": (
        lambda x: np.exp(-0.5 * np.sin(x) ** 2 - 0.25 * np.sin(x) ** 4) - np.abs(np.cos(x)),
        (-math.inf, math.inf), (0.0, 4.0 * math.pi),
    ),
}


def trig_inequality_margin(inequality: str, point) -> float:
    """Slack of one pointwise inequality; negative means violated.

    sin_lb_24        sin x >= x exp(-x^2/3)              for 0 <= x <= 2
    cos_lb_25        cos x >= exp(-rate x^2)             for |x| <= 1
    sin_sandwich_26  x - x^3/6 <= sin x <= x             for x >= 0
    cos_ub_27        |cos x| <= exp(-s^2/2 - s^4/4)      s = sin x, any x
    ratio_27_1       |sin(n x)| <= n |sin x|             point = (n, x)

    Scalar form of the formulas :func:`sweep_inequality_margins` evaluates
    on its grids. Out-of-domain arguments raise :class:`DomainViolation`;
    a ratio n that is not an integer >= 1 raises ``ValueError``.
    """
    if inequality == "ratio_27_1":
        n, x = int(point[0]), np.float64(point[1])
        if n != point[0] or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {point[0]!r}")
        if np.sin(x) == 0.0:
            raise DomainViolation("sin x vanishes, the ratio bound needs sin x != 0")
        return float(_ratio_27_1(n, x))
    if inequality not in _INEQUALITIES:
        raise ValueError(f"unknown inequality {inequality!r}")
    formula, (lo, hi), _ = _INEQUALITIES[inequality]
    x = np.float64(point)
    if not lo <= x <= hi:
        raise DomainViolation(f"x={float(x)} outside [{lo}, {hi}]")
    return float(formula(x))


def sweep_identity_residuals(samples: int = 1000, seed: int = 20260822) -> list[BoundCertificate]:
    """Random (n, x) sweep of both identities against the 1e-9 residual bound.

    Sampling is seeded rather than adversarial: x is uniform on
    [1e-3, pi - 1e-3], redrawn wherever :func:`trig_identity_residual`
    would raise :class:`NearSingular`, and n uniform on [1, 10000].
    Accepted draws are worked out 256 at a time through row buffers
    allocated once, so memory does not grow with ``samples``, and each
    residual has the bits of :func:`trig_identity_residual`. ``argmin``
    and ``detail["worst_n"]`` name the worst draw, the first of a tie.
    The draws are numpy's ``default_rng(seed)`` stream made without
    ``numpy.random`` (:mod:`qunimodal._draws`), so the results do not
    depend on how numpy implements ``Generator``. Raises ``ValueError``
    for a negative seed, and for ``samples < 1``: a sweep that draws
    nothing has no worst residual to certify.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    from ._draws import SeededDraws  # imported here so no other command loads it
    rng = SeededDraws(seed)
    buffers = np.empty((3, max(_CHUNK_ROWS, IDENTITY_N_CAP // _SINE_BLOCK + 1), _SINE_BLOCK))
    certificates = []
    for identity in IDENTITY_IDS:
        worst, worst_x, worst_n = -1.0, 0.0, 0
        drawn = 0
        while drawn < samples:
            block = []
            while len(block) < min(_DRAW_BLOCK, samples - drawn):
                n = rng.integers(1, IDENTITY_N_CAP + 1)
                x = rng.uniform(1e-3, math.pi - 1e-3)
                try:
                    block.append((n, x, *_denominators(identity, x)))
                except NearSingular:
                    pass
            drawn += len(block)
            residuals = np.abs(_identity_residuals(identity, block, buffers))
            i = int(np.argmax(residuals))
            if residuals[i] > worst:
                worst, worst_n, worst_x = float(residuals[i]), *block[i][:2]
        certificates.append(
            BoundCertificate(
                bound_id=f"identity_residual_{identity}",
                grid_lo=1e-3,
                grid_hi=math.pi - 1e-3,
                grid_points=samples,
                min_margin=float(IDENTITY_RESIDUAL_TOL - worst),
                argmin=worst_x,
                error_budget=0.0,
                detail={"max_abs_residual": worst, "worst_n": worst_n, "seed": seed, "n_cap": IDENTITY_N_CAP},
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
        if inequality == "ratio_27_1":  # small n sweep, x clear of the sine zeros
            base = np.linspace(1.2e-3, math.pi - 1.2e-3, max(2, points // 10))
            margins = np.concatenate([_ratio_27_1(n, base) for n in range(2, 12)])
            xs = np.tile(base, 10)
        else:
            formula, _, sweep_range = _INEQUALITIES[inequality]
            xs = np.linspace(*sweep_range, points)
            margins = formula(xs)
        detail = {"raw_min_margin": float(margins.min()), "slack": INEQUALITY_SLACK}
        certificates.append(_on_grid(f"inequality_margin_{inequality}", xs, margins + INEQUALITY_SLACK, 0.0, detail))
    return certificates


# ---------------------------------------------------------------------------
# lobe comparison and exact cross-checks


def i2_ratio_check(n: int, mu: int) -> BoundCertificate:
    """Certify |I2| <= f(n) I1 for one center offset mu; see :func:`lobe_ratio_certificates`."""
    return lobe_ratio_certificates(n, [mu])[0]


def lobe_ratio_certificates(n: int, mus) -> list[BoundCertificate]:
    """Certify |I2| <= f(n) I1 for each center offset in ``mus``, in order.

    I1 is the derivative kernel integral over [0, pi/(6n+4)] and I2 the
    remainder up to pi/2. For n >= 168 each certificate additionally
    checks I1 against :func:`i1_lower_bound`. mu = 0 makes the kernel
    vanish identically; the certificate then passes vacuously with zero
    margins, flagged in the detail payload. Checks at n < 168 or at
    offsets that do not correspond to a coefficient difference are
    performed all the same but flagged as exploratory.

    The cosine product does not depend on mu, so every offset is reduced
    from one evaluation per grid. The grid resolves frequency
    degree + max(6n+3, mu): offsets inside the window [1, 6n+3] share
    one pass over each lobe, an offset beyond it gets a pass of its own,
    and so each certificate is the same whatever other offsets come
    with it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mus = list(mus)
    if any(mu < 0 for mu in mus):
        raise ValueError("mu must be >= 0")
    split = math.pi / (6 * n + 4)
    degree = main_degree(n)
    by_top: dict[int, list[int]] = {}
    # 6n+3 caps the window's offsets of either parity; a parity-exact cap would change the grids' bits.
    for mu in sorted({mu for mu in mus if mu > 0}):
        by_top.setdefault(max(6 * n + 3, mu), []).append(mu)
    lobes: dict[int, tuple[QuadratureResult, QuadratureResult, int]] = {}
    for top, group in by_top.items():
        kernel = partial(integrand, n, group)
        first = integrate_oscillatory(kernel, 0.0, split, degree + top)
        rest = integrate_oscillatory(kernel, split, math.pi / 2, degree + top)
        lobes.update((mu, (first, rest, row)) for row, mu in enumerate(group))
    return [_lobe_certificate(n, mu, split, lobes.get(mu)) for mu in mus]


def _lobe_certificate(n: int, mu: int, split: float, lobes) -> BoundCertificate:
    """One offset's certificate from its row of the two lobe integrals (None for mu = 0)."""
    flags = []
    if n < 168:
        flags.append("exploratory_below_168")
    d = main_degree(n)
    if mu == 0 or (d - mu) % 2 or (d - mu) // 2 not in main_window(n):
        flags.append("non_coefficient_probe")
    if lobes is None:
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
    first, rest, row = lobes
    i1, i1_error = float(first.value[row]), float(first.abs_error_estimate[row])
    i2, i2_error = float(rest.value[row]), float(rest.abs_error_estimate[row])
    factor = f_value(n)
    margins = [factor * i1 - abs(i2)]
    budgets = [factor * i1_error + i2_error]
    detail: dict = {
        "mu": mu,
        "i1": i1,
        "i2": i2,
        "f_n": factor,
        "i1_panels": first.panels,
        "i2_panels": rest.panels,
    }
    if n >= 168:
        floor = i1_lower_bound(n, mu)
        margins.append(i1 - floor)
        budgets.append(i1_error)
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
        n=n,
        detail=detail,
    )


def reconstruction_sweep(n_max: int = 8) -> list[CheckReport]:
    """Compare coeff_by_integral with the exact expansion for n <= n_max.

    Each row is one k-row quadrature of its indices m = 0..d//2, and
    coefficients m and d - m are compared with the same integral. One
    report per n; ``passed`` means every coefficient of the row came
    back within 1e-6 relative error. Like :func:`coeff_by_integral`, it
    stops at n = 12: a larger ``n_max`` raises :class:`GridTooCoarse`
    before any quadrature runs.
    """
    _reconstruction_guard(n_max)
    return list(checked_rows(ProductSpec.main(n_max), _reconstruction_report))


def _reconstruction_report(n: int, p: Polynomial) -> CheckReport:
    """Row n of :func:`reconstruction_sweep`."""
    d = main_degree(n)
    # Offsets mu and -mu share the integrand cos(mu theta) P(theta).
    approx_at = coeff_by_integral(n, range(d // 2 + 1)).tolist()
    worst = -1.0
    worst_m = 0
    for m, exact in enumerate(p.coeffs):
        approx = approx_at[min(m, d - m)]
        rel = abs(approx - exact) / exact
        if rel > worst:
            worst = rel
            worst_m = m
    ok = worst <= 1e-6
    return CheckReport("integral_reconstruction", ok, first_violation=None if ok else worst_m, n=n,
                       details=f"max_rel_err={worst:.3e} at m={worst_m}")


def sign_accord_sweep(n_max: int = 12) -> list[CheckReport]:
    """Check the sign of quad_I against exact coefficient differences.

    For every valid center offset of every row up to n_max the full
    range integral is computed, all offsets of a row in one pass on the
    grid of its largest offset; whenever its magnitude clears its own
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
    return list(checked_rows(ProductSpec.main(n_max), _sign_accord_report))


def _sign_accord_report(n: int, p: Polynomial) -> CheckReport:
    """Row n of :func:`sign_accord_sweep`."""
    degree = main_degree(n)
    checked = 0
    skipped = 0
    violation = None
    mus = [degree - 2 * m for m in reversed(main_window(n)) if 2 * m < degree]
    result = quad_I(n, mus, 0.0, math.pi / 2)
    for mu, value, error in zip(mus, result.value, result.abs_error_estimate):
        m = (degree - mu) // 2
        if abs(value) <= error:
            skipped += 1
            continue
        delta = coeff(p, m) - coeff(p, m - 1)
        if delta == 0:
            skipped += 1
            continue
        checked += 1
        if (value > 0) != (delta > 0):
            violation = m
            break
    return CheckReport("sign_accord", violation is None, first_violation=violation, n=n,
                       details=f"checked={checked} skipped={skipped}")
