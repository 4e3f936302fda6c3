"""Reference implementations used only by the test suite.

Everything in this file is deliberately naive and independent of the
package internals: full convolution products, closed forms, brute force
scans, a replay of a seeded sweep's draws. The library must agree with
these wherever the inputs overlap.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


def convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def naive_product(factors) -> list[int]:
    """Expand prod (1 + sign * q**exp) by repeated full convolution."""
    out = [1]
    for sign, exp in factors:
        out = convolve(out, [1] + [0] * (exp - 1) + [sign])
    return out


def main_factors(n: int) -> list[tuple[int, int]]:
    fs = []
    for k in range(n + 1):
        fs.append((1, 3 * k + 1))
        fs.append((1, 3 * k + 2))
    return fs


def borwein_factors(n: int) -> list[tuple[int, int]]:
    return [(-1, e) for _, e in main_factors(n)]


def odd_factors(n: int) -> list[tuple[int, int]]:
    return [(1, 2 * k - 1) for k in range(1, n + 1)]


def theta_kernel_over_pi(row: list[int], mu: int) -> Fraction:
    """Exact r with integral_0^{pi/2} theta sin(mu theta) P(theta) dtheta = pi * r.

    ``row`` is the expanded prod (1 + q**e_k) with coefficients a_j
    and degree d; P is the matching cosine product
    prod cos(e_k theta) = sum_j a_j cos((d - 2j) theta) / sum_j a_j.
    Splitting theta sin(mu theta) cos(c theta) into two sines leaves
    integral_0^{pi/2} theta sin(k theta) dtheta = -(pi/2) (-1)**(k/2) / k
    for even k != 0 (and 0 for k = 0), which needs mu = d mod 2.
    """
    d = len(row) - 1
    if (d - mu) % 2:
        raise ValueError(f"mu={mu} and degree {d} must have the same parity")
    total = Fraction(0)
    for j, a in enumerate(row):
        c = d - 2 * j
        for k in (mu + c, mu - c):
            if k:
                # (1/2) from the sine split times -(1/2) (-1)^(k/2) / k
                sign = 1 if (k // 2) % 2 else -1
                total += Fraction(sign * a, 4 * k)
    return total / sum(row)


def geometric_block(r: int, k: int) -> list[int]:
    """1 + q**k + q**(2k) + ... + q**((r-1)k)."""
    out = [0] * ((r - 1) * k + 1)
    for j in range(r):
        out[j * k] = 1
    return out


def gaussian_product(r: int, n: int) -> list[int]:
    """prod_{k=1}^{n} (1 - q**(rk)) / (1 - q**k) expanded without division,

    using the factor identity (1 - q**(rk)) / (1 - q**k) = geometric block.
    """
    out = [1]
    for k in range(1, n + 1):
        out = convolve(out, geometric_block(r, k))
    return out


def is_unimodal(seq) -> bool:
    """Brute force: some split index gives rise-then-fall."""
    return any(
        all(seq[i] <= seq[i + 1] for i in range(j))
        and all(seq[i] >= seq[i + 1] for i in range(j, len(seq) - 1))
        for j in range(len(seq))
    )


def symmetric_violation(seq):
    """Smallest j with seq[j] != seq[-1 - j], or None."""
    return next((j for j in range(len(seq)) if seq[j] != seq[-1 - j]), None)


def rise_after_fall(seq):
    """Smallest i with seq[i] > seq[i - 1] after some fall seq[j] < seq[j - 1], j < i; or None."""
    fell = False
    for i in range(1, len(seq)):
        if fell and seq[i] > seq[i - 1]:
            return i
        fell = fell or seq[i] < seq[i - 1]
    return None


def mode_plateau(seq):
    """First and last index of the maximum."""
    peak = max(seq)
    return seq.index(peak), max(i for i, c in enumerate(seq) if c == peak)


def is_strictly_unimodal(seq):
    """A plateau of at most two entries with strict slopes on both sides."""
    lo, hi = mode_plateau(seq)
    return (
        hi - lo <= 1
        and all(seq[i - 1] < seq[i] for i in range(1, lo + 1))
        and all(seq[i - 1] > seq[i] for i in range(hi + 1, len(seq)))
    )


def first_descent(seq, lo, hi):
    """Smallest m in [lo, hi] with seq[m] < seq[m - 1], or None."""
    return next((m for m in range(lo, hi + 1) if seq[m] < seq[m - 1]), None)


def sign_violation(seq, pattern):
    """Smallest m whose nonzero seq[m] has the sign opposite to pattern[m % len(pattern)]."""
    return next((m for m, c in enumerate(seq) if c * pattern[m % len(pattern)] < 0), None)


def _decimal_pi(digits: int) -> Decimal:
    """pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin), to ``digits`` digits."""

    def arctan_inverse(k: int) -> Decimal:
        total, power, j = Decimal(0), Decimal(1) / k, 0
        while power > Decimal(1).scaleb(-digits - 2):
            total += (-1) ** j * power / (2 * j + 1)
            power /= k * k
            j += 1
        return total

    with localcontext() as ctx:
        ctx.prec = digits + 5
        return 16 * arctan_inverse(5) - 4 * arctan_inverse(239)


def upper_gamma_three_halves(x: float) -> float:
    """integral_x^inf sqrt(v) e^(-v) dv by the lower gamma power series, in decimal.

    Gamma(3/2, x) = sqrt(pi)/2 - gamma(3/2, x), with
    gamma(a, x) = x^a e^(-x) sum_k x^k / (a (a+1) ... (a+k)) (DLMF 8.7).
    The sum grows to about e^x before the difference cancels it, so it
    runs with 40 digits to spare beyond x / ln 10. No erfc is involved.
    """
    digits = 40 + int(x / 2.302585)
    with localcontext() as ctx:
        ctx.prec = digits
        v, a = Decimal(x), Decimal(3) / 2
        term = total = 1 / a
        k = 0
        while term > total.scaleb(-digits):
            k += 1
            term = term * v / (a + k)
            total += term
        lower = v.sqrt() * v * (-v).exp() * total
        return float(_decimal_pi(digits).sqrt() / 2 - lower)


def upper_gamma_three_halves_asymptotic(x: float) -> float:
    """Large-x expansion sqrt(x) e^(-x) (1 + 1/(2x) - 1/(4x^2) + 3/(8x^3)).

    Usable once x is big enough that the next term is negligible.
    """
    inv = 1.0 / x
    series = 1.0 + 0.5 * inv - 0.25 * inv * inv + 0.375 * inv ** 3
    return math.sqrt(x) * math.exp(-x) * series


def identity_draws(seed: int, samples: int) -> dict[str, tuple[list, list]]:
    """Replay of the identity sweep's draws: (accepted, rejected) (n, x) pairs per identity.

    One generator serves both identities in turn. A draw is n uniform on
    [1, 10000] and x uniform on [1e-3, pi - 1e-3]; it is redrawn when
    |sin x| < 1e-3, or for sin4_sum when |sin 2x| < 1e-3, until
    ``samples`` are accepted.
    """
    rng = np.random.default_rng(seed)
    draws = {}
    for identity in ("sin2_sum", "sin4_sum"):
        accepted, rejected = [], []
        while len(accepted) < samples:
            n = int(rng.integers(1, 10_001))
            x = float(rng.uniform(1e-3, math.pi - 1e-3))
            floors = (x, 2.0 * x) if identity == "sin4_sum" else (x,)
            near_zero = any(abs(math.sin(angle)) < 1e-3 for angle in floors)
            (rejected if near_zero else accepted).append((n, x))
        draws[identity] = accepted, rejected
    return draws
