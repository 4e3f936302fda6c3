"""Reference values for qunimodal's outputs, computed without the package.

Nothing here imports qunimodal or its tests, and nothing needs numpy.
Rows come from Kronecker substitution: a polynomial with nonnegative
coefficients below 2**(8*width) is packed into one Python integer with
``width`` bytes per coefficient, so multiplying it by 1 + q**e is one
shift and one add, and unpacking is one ``to_bytes``.

The closed forms restate the paper's constants and formulas:

* B_n(q) = prod_{k=0}^{n} (1 + q^(3k+1)) (1 + q^(3k+2)), degree 3(n+1)^2,
  with cosine product P(theta) = sum_j a_j cos((d - 2j) theta) / 2^(2n+2);
* f(n) = pi^3 n^4.5 / (4 * 0.0583) * (1/2 - 1/(6n+4)) * exp(-0.163 n - 0.031);
* the first-lobe floor 0.0583 mu n^-4.5 and the envelope exp(-0.163 n - 0.031);
* the upper incomplete gamma at 3/2, (1/2) sqrt(pi) erfc(sqrt x) + sqrt(x) e^-x.
"""

from __future__ import annotations

import math

SMALL_LOBE_COEFF = 0.0583
ENVELOPE_SLOPE = 0.163
ENVELOPE_INTERCEPT = 0.031
GAUSSIAN_RATE = 3.832

# Fixed-point fraction bits of the lobe closed form. Each of the 2^(2n+2)
# units of coefficient mass contributes at most 2 units of truncation, so
# the value r carries an absolute error below 2^(1 - 200).
_FRACTION_BITS = 200


def main_degree(n: int) -> int:
    return 3 * (n + 1) ** 2


def _unpack(x: int, count: int, width: int) -> list[int]:
    raw = x.to_bytes(count * width, "little")
    return [int.from_bytes(raw[j:j + width], "little") for j in range(0, len(raw), width)]


def main_rows(n_max: int, keep) -> dict[int, list[int]]:
    """Coefficient lists of B_n for every n in ``keep`` (each n <= n_max)."""
    # Every coefficient of B_n is below its sum 2^(2n+2).
    width = (2 * n_max + 2) // 8 + 1
    slot = 8 * width
    keep = set(keep)
    x = 1
    rows = {}
    for n in range(n_max + 1):
        x += x << (slot * (3 * n + 1))
        x += x << (slot * (3 * n + 2))
        if n in keep:
            rows[n] = _unpack(x, main_degree(n) + 1, width)
    return rows


def trinomial_rows(n_max: int, keep) -> dict[int, list[int]]:
    """prod_{k=1}^{n} (1 + q^k + q^(2k)) for every n in ``keep``.

    This equals the quotient prod (1 - q^(3k)) / (1 - q^k) of the
    quotient family at r = 3 factor by factor, with no division.
    """
    # Every coefficient is below the sum 3^n < 2^(2n).
    width = (2 * n_max) // 8 + 1
    slot = 8 * width
    keep = set(keep)
    x = 1
    rows = {}
    for n in range(1, n_max + 1):
        x += (x << (slot * n)) + (x << (slot * 2 * n))
        if n in keep:
            rows[n] = _unpack(x, n * (n + 1) + 1, width)
    return rows


def plateau(row: list[int]) -> tuple[int, int]:
    """First and last index of the largest coefficient."""
    peak = max(row)
    return row.index(peak), len(row) - 1 - row[::-1].index(peak)


def _lobe_weight(k: int) -> tuple[int, int]:
    """(sign, |k|) of -(-1)^(k/2) / k for even k != 0.

    From integral_0^{pi/2} theta sin(k theta) dtheta = -(pi/2) (-1)^(k/2) / k.
    """
    sign = 1 if (abs(k) // 2) % 2 else -1
    return (sign if k > 0 else -sign), abs(k)


def theta_kernel_over_pi(row: list[int], mu: int) -> float:
    """r with integral_0^{pi/2} theta sin(mu theta) P(theta) dtheta = pi r.

    ``row`` is B_n and mu an offset of the degree's parity. Writing
    sin(mu t) cos(c t) = (sin((mu+c) t) + sin((mu-c) t)) / 2 gives
    r = sum_j a_j sum_{k = mu +- c_j, k != 0} -(-1)^(k/2) / (4k) / 2^(2n+2)
    with c_j = d - 2j, summed here in integer fixed point.
    """
    d = len(row) - 1
    if (d - mu) % 2:
        raise ValueError(f"mu={mu} and degree {d} differ in parity")
    one = 1 << _FRACTION_BITS
    total = 0
    for j, a in enumerate(row):
        c = d - 2 * j
        weight = 0
        for k in (mu + c, mu - c):
            if k:
                sign, size = _lobe_weight(k)
                weight += sign * (one // (4 * size))
        total += a * weight
    mass_bits = sum(row).bit_length() - 1
    return math.ldexp(float(total), -(_FRACTION_BITS + mass_bits))


def theta_kernel_sign(row: list[int], mu: int) -> int:
    """Exact sign (-1, 0 or 1) of :func:`theta_kernel_over_pi`."""
    d = len(row) - 1
    scale = math.lcm(*range(1, d + mu + 1))
    total = 0
    for j, a in enumerate(row):
        c = d - 2 * j
        for k in (mu + c, mu - c):
            if k:
                sign, size = _lobe_weight(k)
                total += sign * a * (scale // size)
    return (total > 0) - (total < 0)


def sign_accord_scan(n_max: int) -> dict[int, int]:
    """Rows whose theta-kernel sign disagrees with a coefficient difference.

    For each n <= n_max and each coefficient offset mu = d - 2m in
    [1, 6n+3], taken in increasing order, the exact sign of the kernel
    integral is compared with a_n(m) - a_n(m-1); offsets where either
    is zero decide nothing. Returns {n: m of the first disagreement}.
    """
    rows = main_rows(n_max, range(n_max + 1))
    failures = {}
    for n in range(n_max + 1):
        row = rows[n]
        d = len(row) - 1
        for mu in range(1, 6 * n + 4):
            if (d - mu) % 2:
                continue
            m = (d - mu) // 2
            delta = row[m] - (row[m - 1] if m > 0 else 0)
            sign = theta_kernel_sign(row, mu)
            if delta and sign and (sign > 0) != (delta > 0):
                failures[n] = m
                break
    return failures


def f_value(n: int) -> float:
    """The comparison factor f(n) of the lobe ratio bound."""
    return (
        math.pi ** 3 * n ** 4.5 / (4 * SMALL_LOBE_COEFF)
        * (0.5 - 1 / (6 * n + 4))
        * math.exp(-ENVELOPE_SLOPE * n - ENVELOPE_INTERCEPT)
    )


def f_log_derivative(n: int) -> float:
    """d/dn log f(n) = 4.5/n + (d/dn)(1/2 - 1/(6n+4)) / (1/2 - 1/(6n+4)) - 0.163."""
    inner = 0.5 - 1 / (6 * n + 4)
    return 4.5 / n + (6 / (6 * n + 4) ** 2) / inner - ENVELOPE_SLOPE


def i1_floor(n: int, mu: int) -> float:
    return SMALL_LOBE_COEFF * mu * n ** -4.5


def envelope_bound(n: int) -> float:
    return -ENVELOPE_SLOPE * n - ENVELOPE_INTERCEPT


def log_abs_cosine_product(n: int, theta: float) -> float:
    """log |P(theta)| as a sum over the 2n+2 cosine factors."""
    return math.fsum(
        math.log(abs(math.cos(e * theta)))
        for k in range(n + 1)
        for e in (3 * k + 1, 3 * k + 2)
    )


def gamma_tail_cutoff() -> float:
    """The argument 3.832 * 168^3 / (3*168 + 2)^2 at which the tail is anchored."""
    return GAUSSIAN_RATE * 168 ** 3 / (3 * 168 + 2) ** 2


def upper_gamma_three_halves(x: float) -> float:
    return 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(x)) + math.sqrt(x) * math.exp(-x)
