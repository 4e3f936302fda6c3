"""Composite Gauss-Legendre quadrature sized to the integrand's frequency.

For a caller supplied frequency bound f, base panels are at most 2 pi / f
wide (one period of the fastest oscillation) and the fine grid has twice
as many. On e^(i w x) over the reference panel [-1, 1] the 8-point rule
errs by 1.7e-10 at one period per panel and by 4e-15 (rounding level) at
half a period. The value comes from the fine grid. The error estimate,
the fine/base difference plus a rounding floor proportional to the
integral of |f|, over-estimates its error for any top frequency f.

An integrand may return k rows for one set of points, shape (k, len(x)),
for instance one kernel per center offset sharing a single evaluation of
the cosine product. Every row is reduced in the same pass over the
panels against the same weights, and the result then carries arrays of
k values and k error estimates instead of floats. The panel sums of
each row are added up exactly, so a row's value does not depend on how
the panels were chunked, and so not on how many other rows came with it.

The rule's constants are the bits numpy 2.4.6's ``leggauss(8)`` returns,
written out so that no process loads ``numpy.polynomial``. The nodes are
within an ulp of the roots of P_8. The weights add up to 2, each within
8e-15 of its true value, relative (the outer pair 58 ulps high), below
the estimate's rounding floor of 64 eps times the integral of |f|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridTooCoarse

__all__ = ["GAUSS_ORDER", "QuadratureResult", "integrate_oscillatory"]

GAUSS_ORDER = 8

# The positive nodes from the outside in, and their weights.
_HALF_NODES = [float.fromhex(x) for x in ("0x1.ebab1cb0acc66p-1", "0x1.97e4ab249f41ep-1",
                                          "0x1.0d129583284b4p-1", "0x1.77ac94f3c7344p-3")]
_HALF_WEIGHTS = [float.fromhex(w) for w in ("0x1.9ea1d04ca03aep-4", "0x1.c76fb531d2b94p-3",
                                            "0x1.413c50a25560ep-2", "0x1.736360b19933dp-2")]
_NODES = np.array([-x for x in _HALF_NODES] + _HALF_NODES[::-1])
_WEIGHTS = np.array(_HALF_WEIGHTS + _HALF_WEIGHTS[::-1])
_OFFSETS = (_NODES + 1.0) / 2.0

# Panels are evaluated in chunks of at most this many integrand values
# (points times rows), so the scratch arrays stay cache sized, but of at
# least 64 panels, so an integrand of hundreds of rows pays its per-call
# cost once per 64 panels, with scratch that grows with its rows.
_CHUNK_VALUES = 65536
_MIN_CHUNK_PANELS = 64

# Fine panels one integral may use. The default commands need at most a
# few hundred; the lobe ratio check reaches it only above n = 1152.
_MAX_PANELS = 2_000_000


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, absolute error estimate, and the panel count used.

    ``value`` and ``abs_error_estimate`` are floats for an integrand with
    one row and arrays of one entry per row for a k-row integrand.
    """

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    panels: int


def _panel_sums(f: Callable, lefts: np.ndarray, h: float) -> tuple[np.ndarray, bool]:
    """Gauss sum of each panel at ``lefts`` for each row of f, then of |f|; and whether f gave rows.

    Node by node in a fixed order, so a panel's sum has the same bits in
    any chunk; a BLAS product may round a row by its place in the matrix.
    |f| is taken one node at a time into a scratch row, so no full-size
    copy is made and the values f returned are left as they are. The
    chunk's points and values are freed on return, before the next's.
    """
    vals = np.asarray(f((lefts + _OFFSETS[:, None] * h).ravel()), dtype=float)
    many = vals.ndim == 2
    vals = vals.reshape(-1, GAUSS_ORDER, len(lefts))
    sums = np.empty((2, len(vals), len(lefts)))
    term = np.empty_like(sums[0])
    signed, magnitude = sums
    np.multiply(vals[:, 0], _WEIGHTS[0], out=signed)
    np.multiply(np.abs(vals[:, 0], out=term), _WEIGHTS[0], out=magnitude)
    for node in range(1, GAUSS_ORDER):
        signed += np.multiply(vals[:, node], _WEIGHTS[node], out=term)
        magnitude += np.multiply(np.abs(vals[:, node], out=term), _WEIGHTS[node], out=term)
    return sums.reshape(-1, len(lefts)), many


def _exact_parts(values: np.ndarray, starts: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Columns whose sum is exactly the sum of each segment of rows of ``values``.

    Segment i is the rows from ``starts[i]`` up to the next start, by
    default one row. Error-free extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31,
    2008): with sigma a power of two at least (entries + 2) times the
    largest magnitude, q = (sigma + p) - sigma and p - q are exact, and
    the q lie on sigma's grid, so each segment's q add up exactly in any
    order. One sigma serves every segment, so each step is one scalar
    operation over the whole array. Each round moves 38 or more top bits
    into one column; the last column is the remainder, zero for finite
    entries. An infinite, NaN or near-overflow entry makes every
    segment's sum NaN. ``values`` is overwritten; ``scratch`` of its shape
    is reused if given.
    """
    starts = np.arange(len(values)) if starts is None else starts
    scratch = np.empty_like(values) if scratch is None else scratch
    flat, spare = values.reshape(-1), scratch.reshape(-1)
    bounds = starts * values.shape[1]
    grow = 2.0 ** math.ceil(math.log2(np.diff(bounds, append=flat.size).max() + 2))
    top = np.maximum(flat.max(), -flat.min())
    if not np.isfinite(top):
        return np.full((len(bounds), 1), np.nan)
    parts = []
    while top > 0:
        sigma = np.ldexp(grow, np.frexp(top)[1])
        np.add(flat, sigma, out=spare)
        spare -= sigma
        flat -= spare
        parts.append(np.add.reduceat(spare, bounds))
        top = np.maximum(flat.max(), -flat.min())
    parts.append(np.add.reduceat(flat, bounds))
    return np.stack(parts, axis=1)


def _composite(f: Callable, a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Composite rule over ``panels`` uniform panels.

    Returns the integral of each row of f, the integral of each row's
    |f| (the latter feeds the rounding floor), and whether f returned
    rows at all. Each chunk's panel sums join a few columns per row that
    hold the running total exactly, so a row's value is the correctly
    rounded sum of its panel sums whatever the chunk size. The first
    chunk is 64 panels, or all of fewer; the number of rows it reveals
    sizes the chunks after it.
    """
    h = (b - a) / panels
    parts = None
    start, count = 0, min(_MIN_CHUNK_PANELS, panels)
    while count:
        sums, many = _panel_sums(f, a + (start + np.arange(count)) * h, h)
        parts = _exact_parts(sums if parts is None else np.concatenate((parts, sums), axis=1))
        start += count
        count = min(max(_MIN_CHUNK_PANELS, _CHUNK_VALUES // (GAUSS_ORDER * len(sums) // 2)), panels - start)
    totals = np.array([math.fsum(row) for row in parts.tolist()]) * (h / 2.0)
    value, total_abs = np.split(totals, 2)
    return value, total_abs, many


def integrate_oscillatory(f: Callable, a: float, b: float, frequency: float) -> QuadratureResult:
    """Integrate ``f`` over [a, b], resolving oscillations up to ``frequency``.

    ``f`` must accept a numpy array of evaluation points and return the
    integrand values elementwise, either as one array of the same length
    or as k rows of it, shape (k, len(x)); in the second case the value
    and the error estimate are arrays with one entry per row. A fine
    panel spans at most half a period of ``frequency``; more than
    2,000,000 fine panels raise :class:`GridTooCoarse`.
    """
    if not b > a:
        raise ValueError(f"integration range [{a}, {b}] is empty")
    width = 2.0 * math.pi / max(float(frequency), 1.0)
    base = max(1, math.ceil((b - a) / width))
    fine = 2 * base
    if fine > _MAX_PANELS:
        raise GridTooCoarse(
            f"resolving frequency {frequency} over [{a:.6g}, {b:.6g}] needs "
            f"{fine} panels, budget is {_MAX_PANELS}"
        )
    coarse_value, _, _ = _composite(f, a, b, base)
    fine_value, fine_abs, many = _composite(f, a, b, fine)
    floor = 64.0 * float(np.finfo(float).eps) * fine_abs
    error = np.abs(fine_value - coarse_value) + floor
    if not many:
        fine_value, error = float(fine_value[0]), float(error[0])
    return QuadratureResult(value=fine_value, abs_error_estimate=error, panels=fine)
