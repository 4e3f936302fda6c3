"""Exact dense polynomial arithmetic for binomial q-products, in digit planes.

A row a_0..a_d is a read-only ``int64`` array ``limbs`` of shape
(L, d + 1): plane k holds digit k of every coefficient, base 2**56. A
settled row has every digit below the top in [0, 2**56) and a signed
top digit, and L = ceil(bits / 56) when every |a_m| < 2**bits. A factor
(1 +- q**e) is one shifted add or subtract of the planes into
themselves, in place and with no carry; a geometric block of t terms
takes t - 1 of them. A digit's 7 spare bits hold the sum of 128 settled
digits, so one carry pass (:func:`_settle`) per row settles it. Factors
of t_1, t_2, ... terms bound the coefficients by t_1 t_2 ... - 1, so a
row's ``bits`` is the bit length of that bound (336 bits, six digits,
for main row 167). No arithmetic builds a row-sized Python integer:
``.coeffs`` and :func:`dump_lines` decode through views of 7 bytes a
digit. A stream grows each row in place in one array shaped as its last
row (:func:`product_rows`); with a column cap it keeps only the first
``cap`` columns and is exact modulo q**cap, since no column reads a
higher one.

Every factor sum_{j<t} (s q**e)**j is palindromic up to the sign
s**(t-1), so a product of degree d has a_{d-m} = sigma a_m with sigma the
product of those signs: +1 for every family but a ``general`` list with
an odd number of minus signs. :func:`dump_product` (the ``expand``
command) builds a row modulo q**(d//2 + 1) and writes the rest as that
mirror; :func:`build_product` and every check take rows built in full.

:func:`family_rows` is the one stream of rows of each product family,
and :func:`build_product` is its last row:

* ``main``: prod_{k=0}^{n} (1 + q**(3k+1)) (1 + q**(3k+2)), degree
  3 (n+1)**2. :func:`recurrence_step` states the paper's row recurrence.
* ``signed``: prod_{k=0}^{n} (1 - q**(3k+1)) (1 - q**(3k+2)), the main
  family's signed variant.
* ``odd``: prod_{k=1}^{n} (1 + q**(2k-1)).
* ``almkvist``: prod_{k=1}^{n} (1 - q**(rk)) / (1 - q**k), a plain product
  of the geometric blocks 1 + q**k + ... + q**((r-1)k); no row is divided.
* ``general``: an explicit list of (sign, exponent) binomial factors.

:func:`checked_rows` runs a check on each row of a family and drops the
row before the stream builds the next, so every row grows in place.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import AlmkvistDivisionInexact, DegreeMismatch

__all__ = [
    "Polynomial",
    "ProductSpec",
    "build_product",
    "checked_rows",
    "coeff",
    "divide_exact",
    "dump_lines",
    "dump_product",
    "evaluate_at_minus_one",
    "evaluate_at_one",
    "family_rows",
    "main_degree",
    "main_window",
    "mul_binomial",
    "parse_dump",
    "product_rows",
    "recurrence_step",
]

# Coefficients decoded per step of dump_lines.
_DUMP_BLOCK = 1 << 10
# Bits per digit; the 7 spare bits of an int64 hold the sum of _COPIES settled digits.
_DIGIT = 56
_MASK = (1 << _DIGIT) - 1
_COPIES = 1 << (63 - _DIGIT)
# Most columns a factor or a carry pass takes at a time: a digit's share of a plane, kept in cache.
_BLOCK = 1 << 13


def main_degree(n: int) -> int:
    """Degree of the n-th main family product: 3 (n+1)**2."""
    return 3 * (n + 1) ** 2


def main_window(n: int) -> range:
    """The central window of row n: ceil(deg B_{n-1} / 2) <= m <= floor(deg B_n / 2).

    Its offsets mu = deg B_n - 2m are the integers of [0, 6n+3] with the
    parity of deg B_n.
    """
    return range(-(-main_degree(n - 1) // 2), main_degree(n) // 2 + 1)


def _digit_count(bits: int) -> int:
    """Digits of a row whose |a_m| < 2**bits: ceil(bits / 56), at least one."""
    return max(1, -(-bits // _DIGIT))


def _bound_bits(product: int) -> int:
    """Bits of a row whose factors' term counts multiply to ``product``: every |a_m| <= product - 1."""
    return max(1, (product - 1).bit_length())


def _decode(planes: np.ndarray) -> list[int]:
    """The coefficients whose settled digit planes these are, as Python ints."""
    count, n = planes.shape
    width = 7 * count + 1
    raw = bytearray(width * n)
    digits = np.ndarray((count, n), "<i8", raw, strides=(7, width))
    for k in range(count):  # upwards: each digit's first byte covers the zero top byte of the one below
        digits[k] = planes[k]
    view = memoryview(raw)  # slices of a view copy no bytes
    return [int.from_bytes(view[i : i + width], "little", signed=True) for i in range(0, len(raw), width)]


class Polynomial:
    """Dense polynomial with exact integer coefficients, held in digit planes.

    Immutable: ``limbs`` is read-only and all operations return new
    instances. Trailing zeros are trimmed on construction; the zero
    polynomial is ``(0,)`` with degree 0. ``bits`` bounds every
    |a_m| < 2**bits.

    >>> Polynomial([1, 2, 3, 0]).coeffs
    (1, 2, 3)
    >>> Polynomial([-1, 2**64]).limbs.tolist()
    [[72057594037927935, 0], [-1, 256]]
    """

    __slots__ = ("limbs", "degree", "bits", "_coeffs")

    def __init__(self, coefficients: Iterable[int]) -> None:
        cs = [int(c) for c in coefficients]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        cs = cs or [0]
        bits = max(abs(c).bit_length() for c in cs)
        count = _digit_count(bits)
        raw = b"".join(c.to_bytes(7 * count + 1, "little", signed=True) for c in cs)
        limbs = np.array(np.ndarray((count, len(cs)), "<i8", raw, strides=(7, 7 * count + 1)))
        limbs[:-1] &= _MASK  # a lower digit's eighth byte is the next digit's first
        self._set(limbs, bits)

    @classmethod
    def _of(cls, limbs: np.ndarray, bits: int) -> "Polynomial":
        p = cls.__new__(cls)
        p._set(limbs, bits)
        return p

    def _set(self, limbs: np.ndarray, bits: int) -> None:
        self.limbs = np.asarray(limbs, np.int64)
        self.limbs.flags.writeable = False
        self.degree, self.bits = self.limbs.shape[1] - 1, bits
        self._coeffs: tuple[int, ...] | None = None

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients a_0..a_degree, decoded from the planes on first access."""
        if self._coeffs is None:
            self._coeffs = tuple(_decode(self.limbs))
        return self._coeffs

    def is_zero(self) -> bool:
        return self.degree == 0 and not self.limbs.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.degree != other.degree:
            return False
        count = max(len(self.limbs), len(other.limbs))  # fewer digits: zero planes take the top's carry
        wide = [_settle(np.pad(p.limbs, ((0, count - len(p.limbs)), (0, 0)))) for p in (self, other)]
        return np.array_equal(*wide)

    def __hash__(self) -> int:
        # Equal rows share their degree and every coefficient, whatever their digit counts.
        return hash((self.degree, coeff(self, 0), coeff(self, self.degree // 2), coeff(self, self.degree)))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in _decode(self.limbs[:, :6]))
        ellipsis = ", ..." if self.degree >= 6 else ""
        return f"Polynomial(degree={self.degree}, coeffs=[{shown}{ellipsis}])"


# The n of each counted family's first row, and the least n its spec accepts.
_FIRST_N = {"main": 0, "signed": 0, "odd": 0, "almkvist": 1}


@dataclass(frozen=True)
class ProductSpec:
    """Description of one product to expand.

    Every spec checks itself where it is made, whether directly or by a
    classmethod constructor, and raises ValueError for an unknown family
    or a parameter out of its family's range.
    """

    family: str
    n: int | None = None
    r: int | None = None
    factors: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.family == "general":
            for sign, exponent in self.factors:
                _check_factor(sign, exponent, 2)
            return
        if self.family not in _FIRST_N:
            raise ValueError(f"unknown product family {self.family!r}")
        name = "quotient" if self.family == "almkvist" else self.family
        first = _FIRST_N[self.family]
        if name == "quotient" and (self.r is None or self.r < 2):
            raise ValueError("quotient family needs r >= 2")
        if self.n is None or self.n < first:
            raise ValueError(f"{name} family needs n >= {first}")

    @classmethod
    def main(cls, n: int) -> "ProductSpec":
        return cls(family="main", n=n)

    @classmethod
    def signed(cls, n: int) -> "ProductSpec":
        return cls(family="signed", n=n)

    @classmethod
    def odd(cls, n: int) -> "ProductSpec":
        return cls(family="odd", n=n)

    @classmethod
    def general(cls, factors: Sequence[tuple[int, int]]) -> "ProductSpec":
        return cls(family="general", factors=tuple((int(sign), int(exponent)) for sign, exponent in factors))

    @classmethod
    def almkvist(cls, r: int, n: int) -> "ProductSpec":
        return cls(family="almkvist", r=r, n=n)


def _check_factor(sign: int, exponent: int, terms: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if exponent < 1 or terms < 1:
        raise ValueError(f"exponent and terms must be >= 1, got {exponent} and {terms}")


def _settle(planes: np.ndarray) -> np.ndarray:
    """Carry each digit into the next from digit 0 up, so all but the top lie in [0, 2**56); returned."""
    count, n = planes.shape
    if count > 1:  # one digit has nothing to carry
        block = min(-(-n // count), _BLOCK)
        carry = np.empty(block, np.int64)
        for start in range(0, n, block):
            c, digits = carry[: n - start], planes[:, start : start + block]
            for low, high in zip(digits[:-1], digits[1:]):
                np.right_shift(low, _DIGIT, out=c)
                np.bitwise_and(low, _MASK, out=low)
                high += c
    return planes


def _times(out: np.ndarray, n: int, sign: int, exponent: int, terms: int) -> np.ndarray:
    """Multiply the row in ``out[:, :n]``, zero beyond, by sum_{j<terms} (sign q**exponent)**j.

    The product fills ``out`` in place, which is returned. No digit
    carries, so each digit sums ``terms`` times the copies it held.
    Columns go from the top down in blocks, each copied to a scratch
    array before a term writes over it and then added at each term's
    shift, or subtracted. The part of a shifted copy that falls past the
    last column of ``out`` is dropped, so a narrower ``out`` holds the
    product modulo q**width. A factor of more than 128 terms settles
    each term's destination as it goes.
    """
    top = min(n, out.shape[1] - exponent)  # the columns whose copies land in out
    if top < 1:
        return out
    block = min(-(-top // len(out)), _BLOCK)
    scratch = np.empty((len(out), block), np.int64)
    for stop in range(top, 0, -block):
        start = max(stop - block, 0)
        src = scratch[:, : stop - start]
        np.copyto(src, out[:, start:stop])
        for j in range(1, terms):
            dest = out[:, start + j * exponent : stop + j * exponent]
            if not dest.size:  # this term's copy, and every later one, lies past the last column
                break
            for digit, copy in zip(dest, src[:, : dest.shape[1]]):
                (np.subtract if sign**j < 0 else np.add)(digit, copy, out=digit)
            if terms > _COPIES:
                _settle(dest)
    return out


def mul_binomial(p: Polynomial, sign: int, exponent: int, terms: int = 2) -> Polynomial:
    """Multiply by sum_{j<terms} (sign * q**exponent)**j: one shifted add per term.

    ``terms=2`` is the binomial (1 + sign q**e); (1, e, r) is (1 - q**(re)) / (1 - q**e).
    The bound grows to (2**bits - 1) * terms.

    >>> mul_binomial(Polynomial([1, 1]), 1, 2).coeffs
    (1, 1, 1, 1)
    >>> mul_binomial(Polynomial([1, 1]), -1, 1, terms=3).coeffs
    (1, 0, 0, 1)
    """
    _check_factor(sign, exponent, terms)
    if p.is_zero() or terms == 1:
        return p
    bits = (((1 << p.bits) - 1) * terms).bit_length()
    out = np.zeros((_digit_count(bits), p.degree + 1 + (terms - 1) * exponent), np.int64)
    out[: len(p.limbs), : p.degree + 1] = p.limbs
    return Polynomial._of(_settle(_times(out, p.degree + 1, sign, exponent, terms)), bits)


def product_rows(groups: Iterable[Iterable[tuple[int, ...]]], cap: int | None = None) -> Iterator[Polynomial]:
    """Yield the running product after each group of factors, as :func:`mul_binomial` takes them.

    A factor is (sign, exponent) or (sign, exponent, terms). After factors
    of t_1, t_2, ... terms the |a_m| sum to at most T = t_1 t_2 ..., and
    a_0 = 1 and the leading +-1 are two of them once any factor has two
    terms, so every |a_m| <= T - 1 and a row's ``bits`` is the bit length
    of T - 1, at least 1 for the empty product [1]. Each row grows in
    place in one ``home`` array shaped as the last row, (digits, columns),
    and is yielded settled, as the read-only view ``home[:L, :d + 1]``. Its
    digits sum ``copies`` settled digits; a factor that would take them
    past 128 settles the row first. A group extends it there only while
    ``sys.getrefcount(home)`` is what it was before any view of ``home``
    existed: every view's ``.base`` is ``home``, so a row or plane view
    the consumer still holds sends the row to a fresh ``home``, a copy,
    and what it holds stays valid (it keeps its whole ``home`` alive). An
    empty group yields the product so far unchanged.

    With a ``cap``, ``home`` keeps only the first ``cap`` columns: each
    row's width is clipped there and a factor drops what its shifted
    copies put past them. Column m of a product depends only on columns
    0..m of its factors, and a carry moves up a column's digits, never
    across columns, so a row is exact modulo q**cap: its planes are the
    first ``cap`` columns of the full row's, digit for digit, and its
    ``degree`` is at most ``cap - 1``.

    >>> [p.coeffs for p in product_rows([[(1, 1)], [], [(-1, 2)]])]
    [(1, 1), (1, 1), (1, 1, -1, -1)]
    >>> [p.coeffs for p in product_rows([[(1, 1)], [], [(-1, 2)]], cap=3)]
    [(1, 1), (1, 1), (1, 1, -1)]
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    groups = [[(*factor, 2)[:3] for factor in group] for group in groups]
    factors = [factor for group in groups for factor in group]
    for factor in factors:
        _check_factor(*factor)
    bits = _bound_bits(prod(terms for _, _, terms in factors))
    columns = 1 + sum((t - 1) * e for _, e, t in factors)
    shape = _digit_count(bits), columns if cap is None else min(columns, cap)
    home = np.zeros(shape, np.int64)  # columns and digits beyond the row are zero
    free = sys.getrefcount(home)  # read before any view of home holds a reference to it
    home[0, 0], count, width, bound = 1, 1, 1, 1
    for group in groups:
        copies = 1  # each group starts from a settled row
        if group and sys.getrefcount(home) != free:  # a row or plane view in home is still held
            row, home = home[:count, :width], np.zeros(shape, np.int64)
            home[:count, :width] = row
            del row
        for sign, exponent, terms in group:
            if copies * terms > _COPIES:
                _settle(home[:count, :width])
                copies = 1
            n, copies = width, copies * terms
            bound, width = bound * terms, min(width + (terms - 1) * exponent, shape[1])
            count = _digit_count(_bound_bits(bound))
            _times(home[:count, :width], n, sign, exponent, terms)
        yield Polynomial._of(_settle(home[:count, :width]), _bound_bits(bound))


def _family_groups(spec: ProductSpec) -> list:
    """One group of factors a row of the family ``spec`` names, from its first row on."""
    if spec.family in ("main", "signed"):
        sign = -1 if spec.family == "signed" else 1
        return [((sign, 3 * k + 1), (sign, 3 * k + 2)) for k in range(spec.n + 1)]
    if spec.family == "odd":
        return [[(1, 2 * k - 1)] if k else [] for k in range(spec.n + 1)]
    if spec.family == "almkvist":
        return [[(1, k, spec.r)] for k in range(1, spec.n + 1)]
    return [spec.factors]


def family_rows(spec: ProductSpec) -> Iterator[tuple[int | None, Polynomial]]:
    """Yield (n, row) for each row of the family ``spec`` names, up to ``spec.n``.

    A counted family starts at its first n in ``_FIRST_N``; a ``general``
    product is one row, tagged n = None. No reference to a row is kept
    once the stream moves on, so a consumer that drops its row before
    asking for the next (as :func:`checked_rows` does) lets the next grow
    in place, in the array that held it.
    """
    n = _FIRST_N.get(spec.family)
    for p in product_rows(_family_groups(spec)):
        yield n, p
        del p
        n = None if n is None else n + 1


def checked_rows(spec: ProductSpec, check: Callable, n_min: int = 0) -> Iterator:
    """Yield ``check(n, row)`` for each row of :func:`family_rows` from n = ``n_min`` on.

    Raises ValueError, before building a row, if ``n_min`` < 0 or ``n_min`` >
    ``spec.n``; a ``general`` product has no n, and its one row is checked.
    Each row is dropped before the stream builds the next, so every row
    grows in place; a check must not keep its row.
    """
    if n_min < 0 or (spec.n is not None and n_min > spec.n):
        raise ValueError(f"need 0 <= n_min <= n_max, got n_min = {n_min}, n_max = {spec.n}")
    for n, p in family_rows(spec):
        if n is None or n >= n_min:
            yield check(n, p)
        del p


def _spec_factors(spec: ProductSpec) -> list[tuple[int, int, int]]:
    """Every (sign, exponent, terms) factor of the last row of the family ``spec`` names."""
    return [(*factor, 2)[:3] for group in _family_groups(spec) for factor in group]


def build_product(spec: ProductSpec) -> Polynomial:
    """Expand the product described by ``spec``: the last row of :func:`family_rows`.

    All of the family's factors make one group, so the row is settled
    only where a factor would put more than 128 copies in a digit.
    """
    (p,) = product_rows([_spec_factors(spec)])
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
    """Coefficient of q**m, zero outside the stored range; decodes that coefficient alone."""
    if 0 <= m <= p.degree:
        return _decode(p.limbs[:, m : m + 1])[0]
    return 0


def evaluate_at_one(p: Polynomial) -> int:
    """Exact coefficient sum: the value at q = 1."""
    return sum(p.coeffs)


def evaluate_at_minus_one(p: Polynomial) -> int:
    """Exact alternating coefficient sum: the value at q = -1."""
    return sum(p.coeffs[0::2]) - sum(p.coeffs[1::2])


def _lines(start: int, cs: Sequence[int]) -> str:
    """The ``m,<decimal>`` lines of coefficients ``cs``, the first at m = ``start``, as one string."""
    return "".join(map("{},{}\n".format, range(start, start + len(cs)), cs))


def dump_lines(p: Polynomial) -> Iterator[str]:
    """Serialize as ``m,<decimal>`` lines, ascending m, no header; decoded a block at a time."""
    for start in range(0, p.degree + 1, _DUMP_BLOCK):
        yield from _lines(start, _decode(p.limbs[:, start : start + _DUMP_BLOCK])).splitlines()


def dump_product(spec: ProductSpec) -> Iterator[str]:
    """The text of ``dump_lines(build_product(spec))``, one string per block, from the row's lower half.

    The row of degree d is built modulo q**(d//2 + 1) (:func:`product_rows`
    with a cap) and a_{d-m} = sigma a_m gives the rest: each factor
    sum_{j<t} (s q**e)**j has the coefficient s**j at je and s**(t-1-j) =
    s**(t-1) s**j at (t-1-j)e, so it is palindromic up to s**(t-1), and
    sigma is the product of those signs (-1 only for a ``general`` list
    with an odd number of minus signs). Blocks of 1,024 columns below the
    cap come first, then the mirrored blocks, each decoded from its mirror
    columns and reversed. The row is built before this returns; the text
    is decoded as it is read.
    """
    factors = _spec_factors(spec)
    degree = sum((t - 1) * e for _, e, t in factors)
    sigma = prod(s ** (t - 1) for s, _, t in factors)
    (half,) = product_rows([factors], degree // 2 + 1)
    return _mirrored_blocks(half.limbs, degree, sigma)


def _mirrored_blocks(planes: np.ndarray, degree: int, sigma: int) -> Iterator[str]:
    """The lines m = 0..degree of a row whose columns past ``planes`` are sigma times their mirror."""
    cap = planes.shape[1]
    for start in range(0, cap, _DUMP_BLOCK):
        yield _lines(start, _decode(planes[:, start : start + _DUMP_BLOCK]))
    for start in range(cap, degree + 1, _DUMP_BLOCK):
        stop = min(start + _DUMP_BLOCK, degree + 1)
        cs = _decode(planes[:, degree + 1 - stop : degree + 1 - start])[::-1]
        yield _lines(start, cs if sigma > 0 else [-c for c in cs])


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
