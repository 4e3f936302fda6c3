"""Structural coefficient checks: symmetry, unimodality, sign patterns.

Checks report outcomes through :class:`CheckReport` instead of raising,
so a sweep over a whole family collects every result. Exceptions are
reserved for misuse (wrong degree, bad parameters).

Every check reads a row's settled digit planes, never a coefficient
list, and none reads the row's coefficient bound. Neighbours are
compared digit by digit from the signed top digit down, which gives the
exact signs of a_m - a_{m-1} as one int8 vector, read by the
unimodality, window and induction checks. A coefficient's sign is its
top digit's sign, or zero where every digit is zero (the sign pattern
check, whose pattern is a string over '+-'). Symmetry compares each
plane with its mirror.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeMismatch
from .polynomials import Polynomial, ProductSpec, checked_rows, main_degree, main_window

# Unused here, but bench/tracing.py wraps these names in this module; keep them bound.
from .polynomials import build_product, recurrence_step  # noqa: F401

__all__ = [
    "CheckReport",
    "check_almost_unimodal",
    "check_lemma_range",
    "check_sign_pattern",
    "check_symmetric",
    "check_unimodal",
    "replay_induction",
]


@dataclass
class CheckReport:
    """Outcome of one structural check.

    ``first_violation`` is the smallest coefficient index witnessing a
    failure. ``mode_lo`` and ``mode_hi`` bracket the plateau of maximal
    coefficients when a unimodality check passes. ``n`` tags the family
    index when the caller sweeps a chain.
    """

    kind: str
    passed: bool
    first_violation: int | None = None
    mode_lo: int | None = None
    mode_hi: int | None = None
    n: int | None = None
    details: str = ""

    def to_json_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None and value != ""}


def _steps(p: Polynomial, lo: int, hi: int) -> np.ndarray:
    """Exact signs of a_m - a_{m-1} for lo <= m <= hi, as one int8 vector.

    Neighbours are compared digit by digit from the top down, where the
    top digit is signed and the lower ones are not negative; the first
    digit where they differ decides the pair. Each plane takes four
    passes into buffers made once: the two compares, their difference as
    int8, and its copy into the pairs still at zero.
    """
    planes = p.limbs[::-1, lo - 1 : hi + 1]  # the top digit first
    size = planes.shape[1] - 1
    signs, step = np.zeros(size, np.int8), np.empty(size, np.int8)
    rise, fall = np.empty(size, bool), np.empty(size, bool)
    for plane in planes:
        a, b = plane[1:], plane[:-1]
        np.greater(a, b, out=rise)
        np.less(a, b, out=fall)
        np.subtract(rise.view(np.int8), fall.view(np.int8), out=step)
        np.copyto(signs, step, where=signs == 0)
    return signs


def _first(mask: np.ndarray, default: int | None) -> int | None:
    """Index of the first True in ``mask`` (``argmax`` on the boolean view), or ``default``."""
    return int(mask.argmax()) if mask.any() else default


def _first_descent(p: Polynomial, lo: int, hi: int) -> int | None:
    """First m in [lo, hi] with a_m < a_{m-1}, or None if there is none."""
    fall = _first(_steps(p, lo, hi) < 0, None)
    return None if fall is None else lo + fall


def _shape(steps: np.ndarray, offset: int) -> tuple[int | None, int, int]:
    """(first rise after a fall, mode_lo, mode_hi) of the run whose steps these are.

    The run starts at index ``offset``; after a violation the plateau is 0, 0.
    """
    rises = steps > 0
    fall = _first(steps < 0, steps.size)
    rise = _first(rises[fall:], None)
    if rise is not None:
        return offset + fall + rise + 1, 0, 0
    return None, offset + steps.size - _first(rises[::-1], steps.size), offset + fall


def check_symmetric(p: Polynomial) -> CheckReport:
    """Verify coeff(m) == coeff(N - m) for the full degree N."""
    half = p.degree // 2 + 1
    low, high = p.limbs[:, :half], p.limbs[:, ::-1][:, :half]
    if all(np.array_equal(a, b) for a, b in zip(low, high)):  # a plane at a time: no row-sized temporary
        return CheckReport("symmetric", True)
    return CheckReport("symmetric", False, first_violation=int((low != high).any(axis=0).argmax()))


def check_unimodal(p: Polynomial) -> CheckReport:
    """Verify the coefficients rise weakly and then fall weakly.

    On success the plateau of maxima is reported as [mode_lo, mode_hi].
    Strictness (single-step plateau with strict slopes on both sides) is
    noted in ``details`` purely as information; it is not a pass/fail
    criterion.
    """
    steps = _steps(p, 1, p.degree)
    violation, lo, hi = _shape(steps, 0)
    if violation is not None:
        return CheckReport("unimodal", False, first_violation=violation)
    strict = hi - lo <= 1 and bool((steps[:lo] > 0).all()) and bool((steps[hi:] < 0).all())
    return CheckReport("unimodal", True, mode_lo=lo, mode_hi=hi, details=f"strict={strict}")


def check_lemma_range(n: int, p: Polynomial) -> CheckReport:
    """Monotonicity on the central window of a main family row.

    Checks coeff(m) >= coeff(m-1) for m in :func:`main_window` (n), from row
    n-1's centre to row n's: what an induction step cannot inherit.
    """
    if n < 1:
        raise ValueError("the window check needs n >= 1")
    if p.degree != main_degree(n):
        raise DegreeMismatch(
            f"degree {p.degree} does not match the main family degree {main_degree(n)}"
        )
    window = main_window(n)
    m = _first_descent(p, window[0], window[-1])
    if m is not None:
        return CheckReport("lemma_range", False, first_violation=m, n=n)
    return CheckReport("lemma_range", True, n=n, details=f"window=[{window[0]},{window[-1]}]")


def _induction_step(n: int, p: Polynomial) -> CheckReport | None:
    """Why row n of the main chain breaks the induction, or None if it carries on."""
    sym = check_symmetric(p)
    if not sym.passed:
        return CheckReport("induction", False, first_violation=sym.first_violation, n=n,
                           details=f"symmetry broke at n={n}")
    m = _first_descent(p, 1, main_degree(n) // 2)
    if m is None:
        return None
    # Row n-1 rises to floor(deg B_{n-1}/2), which can be main_window(n)[0]: that m stays carried.
    segment = "carried monotonicity" if m <= main_degree(n - 1) // 2 else "central window"
    return CheckReport("induction", False, first_violation=m, n=n,
                       details=f"{segment} broke at n={n}, m={m}")


def replay_induction(n_max: int) -> CheckReport:
    """Rebuild the main chain row by row and re-verify the induction.

    Each row is checked for symmetry and, in one scan, for monotonicity on
    1 <= m <= floor(degree/2), which with symmetry is unimodality. A first
    descent at m <= floor(3n^2/2), the half carried over from row n-1, is
    reported as carried monotonicity; one further on, as the central
    window of :func:`check_lemma_range`. The replay stops at the first row
    that fails.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    for failure in checked_rows(ProductSpec.main(n_max), _induction_step):
        if failure is not None:
            return failure
    return CheckReport("induction", True, n=n_max, details=f"chain verified through n={n_max}")


def check_sign_pattern(p: Polynomial, pattern: str) -> CheckReport:
    """Verify coefficient signs follow ``pattern``, a string over '+-', cyclically, mod its length.

    A zero coefficient is compatible with either sign.
    """
    if not isinstance(pattern, str) or not pattern or set(pattern) - {"+", "-"}:
        raise ValueError(f"the pattern must be a non-empty string over '+-', got {pattern!r}")
    coefficient_signs = (p.limbs != 0).any(axis=0).astype(np.int8)
    coefficient_signs[p.limbs[-1] < 0] = -1
    want = np.resize(np.array([1 if ch == "+" else -1 for ch in pattern], dtype=np.int8), p.degree + 1)
    wrong = np.flatnonzero(coefficient_signs * want < 0)
    if wrong.size:
        return CheckReport("sign_pattern", False, first_violation=int(wrong[0]))
    return CheckReport("sign_pattern", True, details=f"pattern={pattern}")


def check_almost_unimodal(p: Polynomial, a: int) -> CheckReport:
    """Unimodality of the trimmed window coeff(a) .. coeff(N - a).

    With a = 0 this coincides with :func:`check_unimodal` on every
    input. ``first_violation`` and the mode plateau are reported in
    absolute coefficient indices. For the symmetric families the
    plateau is expected to straddle the center; whether it does is
    noted in ``details``.
    """
    n = p.degree
    if a < 0:
        raise ValueError("window trim must be >= 0")
    if 2 * a > n:
        raise ValueError(f"window trim {a} exceeds half the degree {n}")
    violation, lo, hi = _shape(_steps(p, a + 1, n - a), a)
    if violation is not None:
        return CheckReport("almost_unimodal", False, first_violation=violation, details=f"trim={a}")
    central = lo <= (n + 1) // 2 and hi >= n // 2
    return CheckReport(
        "almost_unimodal", True, mode_lo=lo, mode_hi=hi,
        details=f"trim={a} central_peak={central}",
    )
