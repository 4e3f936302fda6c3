"""Structural coefficient checks: symmetry, unimodality, sign patterns.

Checks report outcomes through :class:`CheckReport` instead of raising,
so a sweep over a whole family collects every result. Exceptions are
reserved for misuse (wrong degree, bad parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegreeMismatch
from .polynomials import Polynomial, main_degree, main_rows

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
        out: dict = {"kind": self.kind, "passed": self.passed}
        for key in ("first_violation", "mode_lo", "mode_hi", "n"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.details:
            out["details"] = self.details
        return out


def check_symmetric(p: Polynomial) -> CheckReport:
    """Verify coeff(m) == coeff(N - m) for the full degree N."""
    cs = p.coeffs
    n = p.degree
    for j in range(n // 2 + 1):
        if cs[j] != cs[n - j]:
            return CheckReport("symmetric", False, first_violation=j)
    return CheckReport("symmetric", True)


def _first_rise_after_fall(cs: Sequence[int], offset: int) -> int | None:
    """Absolute index of the first rise after a fall, or None if unimodal."""
    falling = False
    for i in range(1, len(cs)):
        if falling:
            if cs[i] > cs[i - 1]:
                return offset + i
        elif cs[i] < cs[i - 1]:
            falling = True
    return None


def _mode_plateau(cs: Sequence[int], offset: int) -> tuple[int, int]:
    peak = max(cs)
    lo = cs.index(peak)
    hi = len(cs) - 1 - tuple(reversed(cs)).index(peak)
    return offset + lo, offset + hi


def check_unimodal(p: Polynomial) -> CheckReport:
    """Verify the coefficients rise weakly and then fall weakly.

    On success the plateau of maxima is reported as [mode_lo, mode_hi].
    Strictness (single-step plateau with strict slopes on both sides) is
    noted in ``details`` purely as information; it is not a pass/fail
    criterion.
    """
    cs = p.coeffs
    violation = _first_rise_after_fall(cs, 0)
    if violation is not None:
        return CheckReport("unimodal", False, first_violation=violation)
    lo, hi = _mode_plateau(cs, 0)
    strict = (
        hi - lo <= 1
        and all(cs[i] > cs[i - 1] for i in range(1, lo + 1))
        and all(cs[i] < cs[i - 1] for i in range(hi + 1, len(cs)))
    )
    return CheckReport("unimodal", True, mode_lo=lo, mode_hi=hi, details=f"strict={strict}")


def check_lemma_range(n: int, p: Polynomial) -> CheckReport:
    """Monotonicity on the central window of a main family row.

    Checks coeff(m) >= coeff(m-1) for ceil(3n^2/2) <= m <= floor(3(n+1)^2/2),
    the stretch of indices a fresh induction step cannot inherit.
    """
    if n < 1:
        raise ValueError("the window check needs n >= 1")
    if p.degree != main_degree(n):
        raise DegreeMismatch(
            f"degree {p.degree} does not match the main family degree {main_degree(n)}"
        )
    lo = (3 * n * n + 1) // 2
    hi = 3 * (n + 1) ** 2 // 2
    cs = p.coeffs
    for m in range(lo, hi + 1):
        if cs[m] < cs[m - 1]:
            return CheckReport("lemma_range", False, first_violation=m, n=n)
    return CheckReport("lemma_range", True, n=n, details=f"window=[{lo},{hi}]")


def replay_induction(n_max: int) -> CheckReport:
    """Rebuild the main chain row by row and re-verify the induction.

    For each n >= 1 the freshly extended row is checked for symmetry,
    for monotonicity on 1 <= m <= floor(3n^2/2) (the segment carried
    over from row n-1), and for the central window via
    :func:`check_lemma_range`. Together with symmetry those two
    segments cover 1 <= m <= floor(degree/2), which is unimodality.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = main_rows(n_max)
    p = next(rows)
    if not check_symmetric(p).passed or _first_rise_after_fall(p.coeffs, 0) is not None:
        return CheckReport("induction", False, n=0, details="base row failed")
    for n, p in enumerate(rows, start=1):
        sym = check_symmetric(p)
        if not sym.passed:
            return CheckReport(
                "induction", False, first_violation=sym.first_violation, n=n,
                details=f"symmetry broke at n={n}",
            )
        cs = p.coeffs
        carried = 3 * n * n // 2
        for m in range(1, carried + 1):
            if cs[m] < cs[m - 1]:
                return CheckReport(
                    "induction", False, first_violation=m, n=n,
                    details=f"carried monotonicity broke at n={n}, m={m}",
                )
        window = check_lemma_range(n, p)
        if not window.passed:
            return CheckReport(
                "induction", False, first_violation=window.first_violation, n=n,
                details=f"central window broke at n={n}, m={window.first_violation}",
            )
    return CheckReport("induction", True, n=n_max, details=f"chain verified through n={n_max}")


def _parse_pattern(pattern) -> tuple[int, ...]:
    if isinstance(pattern, str):
        mapping = {"+": 1, "-": -1}
        try:
            return tuple(mapping[ch] for ch in pattern)
        except KeyError as exc:
            raise ValueError(f"pattern characters must be '+' or '-', got {pattern!r}") from exc
    signs = tuple(int(s) for s in pattern)
    if any(s not in (1, -1) for s in signs):
        raise ValueError("pattern entries must be +1 or -1")
    return signs


def check_sign_pattern(p: Polynomial, period: int, pattern) -> CheckReport:
    """Verify coefficient signs follow ``pattern`` cyclically mod ``period``.

    ``pattern`` is either a string over '+-' or a sequence of +1/-1
    values. A zero coefficient is compatible with either sign.
    """
    signs = _parse_pattern(pattern)
    if period < 1:
        raise ValueError("period must be >= 1")
    if period != len(signs):
        raise ValueError(f"period {period} does not match pattern length {len(signs)}")
    for m, c in enumerate(p.coeffs):
        want = signs[m % period]
        if (want > 0 and c < 0) or (want < 0 and c > 0):
            return CheckReport("sign_pattern", False, first_violation=m)
    text = "".join("+" if s > 0 else "-" for s in signs)
    return CheckReport("sign_pattern", True, details=f"pattern={text}")


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
    window = p.coeffs[a : n - a + 1]
    violation = _first_rise_after_fall(window, a)
    if violation is not None:
        return CheckReport("almost_unimodal", False, first_violation=violation, details=f"trim={a}")
    lo, hi = _mode_plateau(window, a)
    central = lo <= (n + 1) // 2 and hi >= n // 2
    return CheckReport(
        "almost_unimodal", True, mode_lo=lo, mode_hi=hi,
        details=f"trim={a} central_peak={central}",
    )
