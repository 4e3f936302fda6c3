"""Exact dense polynomial arithmetic for binomial q-products.

The expansion pipeline works entirely over arbitrary precision Python
integers: a polynomial is a dense coefficient tuple, and products of
binomial factors (1 +- q**a) are accumulated one factor at a time with
a single backwards pass each. Nothing in this module is numerical.

Three product families are supported:

* ``main``: prod_{k=0}^{n} (1 + q**(3k+1)) (1 + q**(3k+2)), degree
  3 (n+1)**2. :func:`main_rows` streams rows 0..n_max of this family
  (or of its signed variant) one after another, and
  :func:`recurrence_step` states the paper's recurrence between rows.
* ``general``: an explicit list of (sign, exponent) binomial factors.
* ``almkvist``: prod_{k=1}^{n} (1 - q**(rk)) / (1 - q**k), computed by
  exact long division. Divisibility is checked at every step, never
  assumed; a failure raises :class:`AlmkvistDivisionInexact`.

Every product is grown by :func:`product_rows`, which yields the running
product after each group of factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import AlmkvistDivisionInexact, DegreeMismatch

__all__ = [
    "Polynomial",
    "ProductSpec",
    "build_product",
    "coeff",
    "divide_exact",
    "dump_lines",
    "evaluate_at_minus_one",
    "evaluate_at_one",
    "main_degree",
    "main_rows",
    "mul_binomial",
    "parse_dump",
    "product_rows",
    "recurrence_step",
]


def main_degree(n: int) -> int:
    """Degree of the n-th main family product: 3 (n+1)**2."""
    return 3 * (n + 1) ** 2


class Polynomial:
    """Dense polynomial with exact integer coefficients.

    Treated as immutable: the coefficient storage is a tuple and all
    operations return new instances. Trailing zeros are trimmed on
    construction; the zero polynomial is stored canonically as ``(0,)``
    and reports degree 0.

    >>> Polynomial([1, 2, 3, 0]).coeffs
    (1, 2, 3)
    >>> Polynomial([]).is_zero()
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable[int]) -> None:
        cs = list(coefficients)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs) if cs else (0,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        ellipsis = ", ..." if len(self.coeffs) > 6 else ""
        return f"Polynomial(degree={self.degree}, coeffs=[{shown}{ellipsis}])"


@dataclass(frozen=True)
class ProductSpec:
    """Description of one product to expand.

    Use the classmethod constructors; they validate parameters for the
    family they name.
    """

    family: str
    n: int | None = None
    r: int | None = None
    factors: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def main(cls, n: int) -> "ProductSpec":
        if n < 0:
            raise ValueError("main family needs n >= 0")
        return cls(family="main", n=n)

    @classmethod
    def general(cls, factors: Sequence[tuple[int, int]]) -> "ProductSpec":
        checked = []
        for sign, exponent in factors:
            sign = int(sign)
            exponent = int(exponent)
            if sign not in (1, -1):
                raise ValueError(f"factor sign must be +1 or -1, got {sign}")
            if exponent < 1:
                raise ValueError(f"factor exponent must be >= 1, got {exponent}")
            checked.append((sign, exponent))
        return cls(family="general", factors=tuple(checked))

    @classmethod
    def almkvist(cls, r: int, n: int) -> "ProductSpec":
        if r < 2:
            raise ValueError("quotient family needs r >= 2")
        if n < 1:
            raise ValueError("quotient family needs n >= 1")
        return cls(family="almkvist", r=r, n=n)


def mul_binomial(p: Polynomial, sign: int, exponent: int) -> Polynomial:
    """Multiply by (1 + sign * q**exponent) in one backwards pass.

    Walking the output from high to low degree reads each source
    coefficient before anything could overwrite it, so no scratch
    polynomial is needed.

    >>> mul_binomial(Polynomial([1, 1]), 1, 2).coeffs
    (1, 1, 1, 1)
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if p.is_zero():
        return p
    out = list(p.coeffs) + [0] * exponent
    if sign == 1:
        for m in range(len(out) - 1, exponent - 1, -1):
            c = out[m - exponent]
            if c:
                out[m] += c
    else:
        for m in range(len(out) - 1, exponent - 1, -1):
            c = out[m - exponent]
            if c:
                out[m] -= c
    return Polynomial(out)


def product_rows(groups: Iterable[Iterable[tuple[int, int]]]) -> Iterator[Polynomial]:
    """Yield the running product after each group of (sign, exponent) factors.

    Only the current row is kept, so a long chain costs the memory of
    one row. An empty group yields the product so far unchanged.

    >>> [p.coeffs for p in product_rows([[(1, 1)], [], [(-1, 2)]])]
    [(1, 1), (1, 1), (1, 1, -1, -1)]
    """
    p = Polynomial([1])
    for group in groups:
        for sign, exponent in group:
            p = mul_binomial(p, sign, exponent)
        yield p


def main_rows(n_max: int, sign: int = 1) -> Iterator[Polynomial]:
    """Rows 0..n_max of prod_{k=0}^{n} (1 + sign q**(3k+1)) (1 + sign q**(3k+2)).

    ``sign=1`` is the main family, ``sign=-1`` its signed variant.
    """
    return product_rows(((sign, 3 * k + 1), (sign, 3 * k + 2)) for k in range(n_max + 1))


def build_product(spec: ProductSpec) -> Polynomial:
    """Expand the product described by ``spec`` into dense coefficients."""
    if spec.family == "almkvist":
        (numerator,) = product_rows([[(-1, spec.r * k) for k in range(1, spec.n + 1)]])
        quotient = numerator
        for k in range(1, spec.n + 1):
            quotient = divide_exact(quotient, Polynomial([1] + [0] * (k - 1) + [-1]))
        assert quotient.degree == (spec.r - 1) * spec.n * (spec.n + 1) // 2
        return quotient
    if spec.family == "main":
        factors = [(1, e) for k in range(spec.n + 1) for e in (3 * k + 1, 3 * k + 2)]
    elif spec.family == "general":
        factors = spec.factors
    else:
        raise ValueError(f"unknown product family {spec.family!r}")
    (p,) = product_rows([factors])
    assert spec.family != "main" or p.degree == main_degree(spec.n)
    return p


def divide_exact(numerator: Polynomial, denominator: Polynomial) -> Polynomial:
    """Schoolbook long division that must terminate with remainder zero.

    Works over the integers as long as every leading division is exact,
    which holds whenever the denominator's leading coefficient is a
    unit. Raises :class:`AlmkvistDivisionInexact` the moment a quotient
    step fails to divide, or if a nonzero remainder survives the loop.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
        return numerator
    dd = denominator.degree
    if numerator.degree < dd:
        raise AlmkvistDivisionInexact(
            f"numerator degree {numerator.degree} is below denominator degree {dd}"
        )
    rem = list(numerator.coeffs)
    den = denominator.coeffs
    lead = den[-1]
    body = [(j, c) for j, c in enumerate(den[:-1]) if c]
    quot_degree = numerator.degree - dd
    quot = [0] * (quot_degree + 1)
    for i in range(quot_degree, -1, -1):
        c = rem[i + dd]
        if c == 0:
            continue
        t, leftover = divmod(c, lead)
        if leftover:
            raise AlmkvistDivisionInexact(
                f"leading coefficient {lead} does not divide {c} at offset {i}"
            )
        quot[i] = t
        rem[i + dd] = 0
        for j, dj in body:
            rem[i + j] -= t * dj
    if any(rem):
        raise AlmkvistDivisionInexact("nonzero remainder after long division")
    return Polynomial(quot)


def recurrence_step(prev: Polynomial, n: int) -> Polynomial:
    """Advance the main family chain from row n-1 to row n.

    Multiplying by (1 + q**(3n+1))(1 + q**(3n+2)) amounts to adding
    three shifted copies of the previous row: coefficient m picks up the
    values at m-(3n+1), m-(3n+2) and m-(6n+3).
    """
    if n < 1:
        raise ValueError("recurrence_step needs n >= 1")
    expected = main_degree(n - 1)
    if prev.degree != expected:
        raise DegreeMismatch(
            f"previous row has degree {prev.degree}, expected {expected} for step n={n}"
        )
    s1, s2, s3 = 3 * n + 1, 3 * n + 2, 6 * n + 3
    cs = prev.coeffs
    out = list(cs) + [0] * s3
    for j, v in enumerate(cs):
        if v:
            out[j + s1] += v
            out[j + s2] += v
            out[j + s3] += v
    return Polynomial(out)


def coeff(p: Polynomial, m: int) -> int:
    """Coefficient of q**m, zero outside the stored range."""
    if 0 <= m < len(p.coeffs):
        return p.coeffs[m]
    return 0


def evaluate_at_one(p: Polynomial) -> int:
    """Exact coefficient sum: the value at q = 1."""
    return sum(p.coeffs)


def evaluate_at_minus_one(p: Polynomial) -> int:
    """Exact alternating coefficient sum: the value at q = -1."""
    return sum(p.coeffs[0::2]) - sum(p.coeffs[1::2])


def dump_lines(p: Polynomial) -> Iterator[str]:
    """Serialize as ``m,<decimal>`` lines, ascending m, no header."""
    for m, c in enumerate(p.coeffs):
        yield f"{m},{c}"


def parse_dump(lines: Iterable[str]) -> Polynomial:
    """Inverse of :func:`dump_lines`; strict about order and gaps."""
    cs: list[int] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        left, _, right = line.partition(",")
        try:
            m = int(left)
            c = int(right)
        except ValueError as exc:
            raise ValueError(f"bad coefficient line {line!r}") from exc
        if m != len(cs):
            raise ValueError(f"coefficient index {m} out of order (expected {len(cs)})")
        cs.append(c)
    if not cs:
        raise ValueError("empty coefficient dump")
    return Polynomial(cs)
