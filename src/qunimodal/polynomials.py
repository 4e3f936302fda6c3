"""Exact dense polynomial arithmetic for binomial q-products, packed.

All arithmetic is on arbitrary precision integers. A row is one integer
``packed = sum_m a_m * 2**(slot*m)`` (Kronecker substitution, Harvey
2009), so a factor (1 +- q**e) is one shifted add ``x +- (x << slot*e)``.
Every |a_m| < 2**bits < 2**slot, with slot a multiple of 64, so no slot
carries into the next; a factor of t terms adds ceil(log2 t) bits, and
:func:`product_rows` fixes the slot above their sum + 1 before its first
factor (384 for ``main_rows(167)``). Signed rows are packed alike.
``.coeffs`` decodes the slots once, on first access.

:func:`family_rows` streams the rows of each product family, and
:func:`build_product` is its last row:

* ``main``: prod_{k=0}^{n} (1 + q**(3k+1)) (1 + q**(3k+2)), degree
  3 (n+1)**2, through :func:`main_rows` (which also streams the signed
  variant). :func:`recurrence_step` states the paper's row recurrence.
* ``odd``: prod_{k=1}^{n} (1 + q**(2k-1)).
* ``almkvist``: prod_{k=1}^{n} (1 - q**(rk)) / (1 - q**k), a plain product
  of the geometric blocks 1 + q**k + ... + q**((r-1)k); no row is divided.
* ``general``: an explicit list of (sign, exponent) binomial factors.
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
    "family_rows",
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


def _slot_width(bits: int) -> int:
    """The first multiple of 64 above ``bits``."""
    return 64 * (bits // 64 + 1)


def _spread(value: int, slot: int, count: int) -> int:
    """``value`` in each of ``count`` slots: sum_m value * 2**(slot*m)."""
    return int.from_bytes(value.to_bytes(slot // 8, "big") * count, "big")


class Polynomial:
    """Dense polynomial with exact integer coefficients, packed in one integer.

    Treated as immutable: all operations return new instances. Trailing
    zeros are trimmed on construction; the zero polynomial is ``(0,)``
    with degree 0. ``signed`` says whether a coefficient may be negative.

    >>> Polynomial([1, 2, 3, 0]).coeffs
    (1, 2, 3)
    >>> Polynomial([]).is_zero()
    True
    """

    __slots__ = ("packed", "slot", "degree", "bits", "signed", "_coeffs", "_bytes")

    def __init__(self, coefficients: Iterable[int], room: int = 1) -> None:
        cs = [int(c) for c in coefficients]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        cs = cs or [0]
        bits = max(abs(c).bit_length() for c in cs)
        slot = _slot_width(bits + room)  # free bits per slot: one binomial needs 1
        self._set(0, slot, len(cs) - 1, bits, min(cs) < 0, tuple(cs))
        biased = b"".join((c + self.bias).to_bytes(slot // 8, "big") for c in reversed(cs))
        self.packed = int.from_bytes(biased, "big") - (_spread(self.bias, slot, len(cs)) if self.signed else 0)

    @classmethod
    def _of(cls, packed: int, slot: int, degree: int, bits: int, signed: bool) -> "Polynomial":
        p = cls.__new__(cls)
        p._set(packed, slot, degree, bits, signed, None)
        return p

    def _set(self, packed, slot, degree, bits, signed, coeffs) -> None:
        self.packed, self.slot, self.degree, self.bits, self.signed = packed, slot, degree, bits, signed
        self._coeffs: tuple[int, ...] | None = coeffs
        self._bytes: bytes | None = None

    @property
    def bias(self) -> int:
        """What :meth:`slot_bytes` adds to every slot: 2**bits for a signed row, else 0."""
        return 1 << self.bits if self.signed else 0

    def slot_bytes(self, lo: int, hi: int) -> bytes | memoryview:
        """Slots hi down to lo, ``slot // 8`` big-endian bytes each.

        Slot m holds a_m + :attr:`bias`, in [0, 2**(bits + signed)). The
        whole row's bytes are kept, and a part is cut from them if kept.
        """
        width = self.slot // 8
        if self._bytes is not None:
            return memoryview(self._bytes)[(self.degree - hi) * width : (self.degree - lo + 1) * width]
        value = self.packed + _spread(self.bias, self.slot, self.degree + 1) if self.signed else self.packed
        if lo == 0 and hi == self.degree:
            self._bytes = value.to_bytes(width * (self.degree + 1), "big")
            return self._bytes
        value = (value >> (self.slot * lo)) & ((1 << (self.slot * (hi - lo + 1))) - 1)
        return value.to_bytes(width * (hi - lo + 1), "big")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients a_0..a_degree, decoded from the slots on first access."""
        if self._coeffs is None:
            width, view, bias = self.slot // 8, memoryview(self.slot_bytes(0, self.degree)), self.bias
            ends = range(len(view), 0, -width)
            self._coeffs = tuple(int.from_bytes(view[i - width : i], "big") - bias for i in ends)
        return self._coeffs

    def is_zero(self) -> bool:
        return self.packed == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        ellipsis = ", ..." if self.degree >= 6 else ""
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
    def odd(cls, n: int) -> "ProductSpec":
        if n < 0:
            raise ValueError("odd family needs n >= 0")
        return cls(family="odd", n=n)

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


def mul_binomial(p: Polynomial, sign: int, exponent: int, terms: int = 2) -> Polynomial:
    """Multiply by sum_{j<terms} (sign * q**exponent)**j: one shifted add per term.

    ``terms=2`` is the binomial (1 + sign q**e); (1, e, r) is (1 - q**(re)) / (1 - q**e).

    >>> mul_binomial(Polynomial([1, 1]), 1, 2).coeffs
    (1, 1, 1, 1)
    >>> mul_binomial(Polynomial([1, 1]), -1, 1, terms=3).coeffs
    (1, 0, 0, 1)
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if exponent < 1 or terms < 1:
        raise ValueError(f"exponent and terms must be >= 1, got {exponent} and {terms}")
    if p.is_zero():
        return p
    growth = (terms - 1).bit_length()  # ceil(log2 terms) bits
    if p.bits + growth >= p.slot:
        p = Polynomial(p.coeffs, room=growth)  # repacked with room for the whole growth
    shift, packed = p.slot * exponent, p.packed
    for _ in range(terms - 1):  # Horner: p + sign * q**exponent * (the sum so far)
        packed = p.packed + (packed << shift) if sign == 1 else p.packed - (packed << shift)
    return Polynomial._of(packed, p.slot, p.degree + (terms - 1) * exponent, p.bits + growth, p.signed or sign < 0)


def product_rows(groups: Iterable[Iterable[tuple[int, ...]]]) -> Iterator[Polynomial]:
    """Yield the running product after each group of factors, as :func:`mul_binomial` takes them.

    A factor is (sign, exponent) or (sign, exponent, terms). The slot width
    is fixed from the total growth before the first factor. Only the
    current packed row is kept, no coefficient list is built, and a row's
    slot bytes are dropped once the stream moves on. An empty group yields
    the product so far unchanged.

    >>> [p.coeffs for p in product_rows([[(1, 1)], [], [(-1, 2)]])]
    [(1, 1), (1, 1), (1, 1, -1, -1)]
    """
    groups = [[(*factor, 2)[:3] for factor in group] for group in groups]
    growth = sum((terms - 1).bit_length() for group in groups for _, _, terms in group)
    p = Polynomial._of(1, _slot_width(growth + 1), 0, 1, False)
    for group in groups:
        for sign, exponent, terms in group:
            p = mul_binomial(p, sign, exponent, terms)
        yield p
        p._bytes = None  # a consumer holding this row keeps only its integer


def main_rows(n_max: int, sign: int = 1) -> Iterator[Polynomial]:
    """Rows 0..n_max of prod_{k=0}^{n} (1 + sign q**(3k+1)) (1 + sign q**(3k+2)).

    ``sign=1`` is the main family, ``sign=-1`` its signed variant.
    """
    return product_rows(((sign, 3 * k + 1), (sign, 3 * k + 2)) for k in range(n_max + 1))


def family_rows(spec: ProductSpec) -> Iterator[tuple[int | None, Polynomial]]:
    """Yield (n, row) for each row of the family ``spec`` names, up to ``spec.n``.

    ``main`` and ``odd`` start at n = 0 and ``almkvist`` at n = 1; a
    ``general`` product is one row, tagged n = None. No reference to a row
    is kept once the stream moves on (``enumerate`` would keep one), so a
    consumer that drops its row before asking for the next holds one row
    fewer while the next is built.
    """
    if spec.family == "main":
        rows, n = main_rows(spec.n), 0
    elif spec.family == "odd":
        rows, n = product_rows([(1, 2 * k - 1)] if k else [] for k in range(spec.n + 1)), 0
    elif spec.family == "almkvist":
        rows, n = product_rows([(1, k, spec.r)] for k in range(1, spec.n + 1)), 1
    elif spec.family == "general":
        (p,) = product_rows([spec.factors])
        yield None, p
        return
    else:
        raise ValueError(f"unknown product family {spec.family!r}")
    for p in rows:
        yield n, p
        del p
        n += 1


def build_product(spec: ProductSpec) -> Polynomial:
    """Expand the product described by ``spec``: the last row of :func:`family_rows`."""
    for _, p in family_rows(spec):
        pass
    assert spec.family != "main" or p.degree == main_degree(spec.n)
    assert spec.family != "almkvist" or p.degree == (spec.r - 1) * spec.n * (spec.n + 1) // 2
    return p


def divide_exact(numerator: Polynomial, denominator: Polynomial) -> Polynomial:
    """Schoolbook long division that must terminate with remainder zero.

    A reference only: no family calls it; the quotient rows are tested against it.
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
    return mul_binomial(mul_binomial(prev, 1, 3 * n + 1), 1, 3 * n + 2)


def coeff(p: Polynomial, m: int) -> int:
    """Coefficient of q**m, zero outside the stored range."""
    if 0 <= m <= p.degree:
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
