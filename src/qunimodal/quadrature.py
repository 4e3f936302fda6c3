"""Composite Gauss-Legendre quadrature sized to the integrand's frequency.

The driver splits [a, b] into uniform panels whose width never exceeds
pi / (4 f) for a caller supplied frequency bound f, so the fastest
oscillation is sampled several times per period and the order-8 rule
sits deep inside its spectral convergence regime. The reported value
comes from a doubled grid; the error estimate is the difference between
the doubled and the base grid plus a rounding floor proportional to the
integral of |f|.

An integrand may return k rows for one set of points, shape (k, len(x)),
for instance one kernel per center offset sharing a single evaluation of
the cosine product. Every row is reduced in the same pass over the
panels against the same weights, and the result then carries arrays of
k values and k error estimates instead of floats. The panel sums of
each row are added up exactly (``math.fsum`` per row, carried across
chunks), so a row's value does not depend on how the panels were
chunked, and so not on how many other rows came with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridTooCoarse

__all__ = ["GAUSS_ORDER", "QuadratureResult", "integrate_oscillatory"]

GAUSS_ORDER = 8

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)
_OFFSETS = (_NODES + 1.0) / 2.0

# Panels are evaluated in chunks of at most this many integrand values
# (points times rows), so the scratch arrays stay cache sized however
# many panels an integral needs and however many rows the integrand has.
_CHUNK_VALUES = 65536


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, absolute error estimate, and the panel count used.

    ``value`` and ``abs_error_estimate`` are floats for an integrand with
    one row and arrays of one entry per row for a k-row integrand.
    """

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    panels: int


def _add_exact(pieces: list[float], values: list[float]) -> None:
    """Append the sum of ``values`` to ``pieces`` as its rounded value plus the remainder.

    The pair carries the sum to about 2^-106 relative, so the fsum of all
    pieces rounds the same total however the values were split, unless
    that total lies within 2^-106 of a rounding tie.
    """
    head = math.fsum(values)
    pieces += (head, math.fsum([*values, -head]))


def _composite(f: Callable, a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Composite rule over ``panels`` uniform panels.

    Returns the integral of each row of f, the integral of each row's
    |f| (the latter feeds the rounding floor), and whether f returned
    rows at all. The panel sums of each row are added up exactly, so the
    result does not depend on the chunk size. The first chunk is a single
    panel; the number of rows it reveals sizes the chunks after it.
    """
    h = (b - a) / panels
    sums: list[list[float]] = []
    abs_sums: list[list[float]] = []
    start, count = 0, 1
    while count:
        lefts = a + (start + np.arange(count)) * h
        x = (lefts[:, None] + _OFFSETS[None, :] * h).ravel()
        vals = np.asarray(f(x), dtype=float)
        many = vals.ndim == 2
        vals = vals.reshape(-1, count, GAUSS_ORDER)
        if not sums:
            sums = [[] for _ in vals]
            abs_sums = [[] for _ in vals]
        for row, pieces in zip(vals @ _WEIGHTS, sums):
            _add_exact(pieces, row.tolist())
        for row, pieces in zip(np.abs(vals) @ _WEIGHTS, abs_sums):
            _add_exact(pieces, row.tolist())
        start += count
        count = min(max(1, _CHUNK_VALUES // (GAUSS_ORDER * len(vals))), panels - start)
    scale = h / 2.0
    value = np.array([math.fsum(pieces) for pieces in sums]) * scale
    total_abs = np.array([math.fsum(pieces) for pieces in abs_sums]) * scale
    return value, total_abs, many


def integrate_oscillatory(
    f: Callable,
    a: float,
    b: float,
    frequency: float,
    max_panels: int = 1_000_000,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b], resolving oscillations up to ``frequency``.

    ``f`` must accept a numpy array of evaluation points and return the
    integrand values elementwise, either as one array of the same length
    or as k rows of it, shape (k, len(x)); in the second case the value
    and the error estimate are arrays with one entry per row. Raises
    :class:`GridTooCoarse` when the refinement grid would exceed
    ``max_panels`` panels.
    """
    if not b > a:
        raise ValueError(f"integration range [{a}, {b}] is empty")
    width = math.pi / (4.0 * max(float(frequency), 1.0))
    base = max(1, math.ceil((b - a) / width))
    fine = 2 * base
    if fine > max_panels:
        raise GridTooCoarse(
            f"resolving frequency {frequency} over [{a:.6g}, {b:.6g}] needs "
            f"{fine} panels, budget is {max_panels}"
        )
    coarse_value, _, _ = _composite(f, a, b, base)
    fine_value, fine_abs, many = _composite(f, a, b, fine)
    floor = 64.0 * float(np.finfo(float).eps) * fine_abs
    error = np.abs(fine_value - coarse_value) + floor
    if not many:
        fine_value, error = float(fine_value[0]), float(error[0])
    return QuadratureResult(value=fine_value, abs_error_estimate=error, panels=fine)
