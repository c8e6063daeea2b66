"""Counting self-reciprocal irreducible polynomials over F_q.

The machinery revolves around the master divisor polynomial
h_poly(n) = x^(q^n + 1) - a, whose irreducible factors of degree >= 2
other than x^2 - a are exactly the nontrivial a-srim polynomials of
degree 2d for divisors d of n with n/d odd.  m_poly strips the x^2 - a
factor when it is present (delta = -1: a is a square, or a is a
non-square and n is even).  Moebius inversion over the odd divisors then
gives both the product formula (si_product) and the closed-form count
(si_formula).  enumerate_srm provides the exhaustive stream the formulas
are checked against, and enumerate_srim keeps its irreducible members:
the one a-srim stream that si_enumerated, si_product and the master
factorization check read.  The checks themselves (the divisor-sum
identity, the master factorization) live in verify.

si counts NONTRIVIAL a-srim polynomials of degree 2n; the trivial
quadratic x^2 - a is excluded from the master polynomial by
construction, which is what makes the n = 1 branch (q -+ 1)/2 and the
divisor-sum identity internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, VerificationError, capped_power, within_budget
from .factor import is_irreducible
from .field import Field, FieldElement
from .poly import Poly
from .recip import _x2_minus_a

# a census row's fields, in JSON and CSV column order
COLUMNS = ("q", "a", "n", "delta", "si_formula", "si_enumerated", "agreement")
CSV_HEADER = ",".join(COLUMNS)


def mobius(d: int) -> int:
    """Moebius function: 0 when a prime square divides d, else
    (-1)^(number of prime factors), by trial division."""
    if d < 1:
        raise DomainError("mobius is defined on positive integers")
    mu, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if d > 1 else mu


def _master_divisors(n: int) -> list[int]:
    # the d | n with n/d odd: the master polynomial's factors have degree 2d
    within_budget(n, "the divisor scan")
    return [d for d in range(1, n + 1) if n % d == 0 and n // d % 2]


def delta(field: Field, a: FieldElement, n: int) -> int:
    """-1 when x^2 - a divides h_poly(n): a is a square, or a is a
    non-square and n is even.  +1 otherwise."""
    a = field.element(a)
    if n < 1:
        raise DomainError("n must be >= 1")
    if a.is_square() or n % 2 == 0:
        return -1
    return 1


def h_poly(field: Field, a: FieldElement, n: int) -> Poly:
    """The two-term master polynomial x^(q^n + 1) - a."""
    a = field.element(a)
    if not a:
        raise DomainError("the parameter must be nonzero")
    if n < 1:
        raise DomainError("n must be >= 1")
    within_budget(capped_power(field.q, n) + 1, "the master polynomial x^(q^n + 1) - a")
    return Poly._raw(field, (field._neg(a.code),) + (0,) * field.q ** n + (1,))


def m_poly(field: Field, a: FieldElement, n: int) -> Poly:
    """h_poly with the x^2 - a factor removed when delta = -1.

    The division must be exact; a nonzero remainder would contradict the
    divisibility law the delta case split encodes."""
    a = field.element(a)
    h = h_poly(field, a, n)
    if delta(field, a, n) == 1:
        return h
    quo, rem = divmod(h, _x2_minus_a(a))
    if rem:
        raise VerificationError("x^2 - a failed to divide the master polynomial")
    return quo


def si_formula(field: Field, a_is_square: bool, n: int) -> int:
    """Closed-form count of nontrivial a-srim polynomials of degree 2n.

    n = 1: (q - 1)/2 when a is a square, else (q + 1)/2.  n > 1 depends
    only on q and is the classical count, carlitz_count(q, n)."""
    q = field.q
    if n < 1:
        raise DomainError("n must be >= 1")
    if n == 1:
        return (q - 1) // 2 if a_is_square else (q + 1) // 2
    return carlitz_count(q, n)


def carlitz_count(q: int, n: int) -> int:
    """Classical count of self-reciprocal irreducible monic polynomials
    of degree 2n over F_q (odd q): sum mu(n/d) (q^d - 1) over the d | n with
    n/d odd, over 2n.  Its -1 terms add up to -1 if n is a power of two, else 0."""
    if n < 1 or q < 3 or q % 2 == 0:
        raise DomainError("odd q and n >= 1 required")
    within_budget(n, "the classical count")
    total = sum(mobius(n // d) * (q ** d - 1) for d in _master_divisors(n))
    if total % (2 * n) != 0:
        raise VerificationError("classical count is not integral")
    return total // (2 * n)


def _srm_stream(field: Field, a: FieldElement, degree: int, b0: int,
                free: range) -> Iterator[Poly]:
    """Monic a-srm polynomials of the given degree with constant code b0.

    The codes at the free indices run over every tuple of
    ``Field._tuples``, the first index most significant; each b_i with
    0 < i < degree/2 mirrors b_(degree-i) by b_i = b_(degree-i) b_0 a^(-i),
    and every other coefficient stays 0."""
    within_budget(capped_power(field.q, len(free)), "the a-srm enumeration")
    reduce = field._reduce
    inv_a = field._inv(a.code)
    half = (degree - 1) // 2
    scale = [b0]  # b_0 a^(-i)
    for _ in range(half):
        scale.append(reduce(scale[-1] * inv_a))
    cut = slice(free.start, free.stop, free.step)
    for upper in field._tuples(len(free)):
        b = [0] * (degree + 1)
        b[0], b[degree] = b0, 1
        b[cut] = upper
        for i in range(1, half + 1):
            b[i] = reduce(b[degree - i] * scale[i])
        yield Poly._raw(field, b)


def enumerate_srm(field: Field, a: FieldElement, n: int, kind: str) -> Iterator[Poly]:
    """All monic a-srm polynomials of degree 2n of the given kind
    ("trivial" or "nontrivial"), each exactly once.

    The upper-half coefficients b_n..b_{2n-1} are free (b_n = 0 forced
    for the trivial kind) and determine the rest via b_i = +-b_{2n-i}
    a^(n-i); the stream walks them lexicographically in the canonical
    element order, b_n most significant.  Lengths: q^n nontrivial,
    q^(n-1) trivial."""
    a = field.element(a)
    if not a:
        raise DomainError("the parameter must be nonzero")
    if n < 1:
        raise DomainError("n must be >= 1")
    if kind not in ("trivial", "nontrivial"):
        raise DomainError(f"kind must be 'trivial' or 'nontrivial', got {kind!r}")
    trivial = kind == "trivial"
    b0 = -(a ** n) if trivial else a ** n
    yield from _srm_stream(field, a, 2 * n, b0.code, range(n + 1 if trivial else n, 2 * n))


def enumerate_odd_srm(field: Field, a: FieldElement, n: int) -> Iterator[Poly]:
    """All monic a-srm polynomials of odd degree n (empty unless a is a
    square).  For each sign choice b_0 = +-sqrt(a)^n the upper-half
    coefficients are free, b_{n-1} most significant, and mirror down via
    b_i = b_{n-i} b_0 / a^i."""
    a = field.element(a)
    if not a:
        raise DomainError("the parameter must be nonzero")
    if n < 1 or n % 2 == 0:
        raise DomainError("odd n >= 1 required")
    root = a.sqrt()
    if root is None:
        return
    for b0 in (root ** n, -(root ** n)):
        yield from _srm_stream(field, a, n, b0.code, range(n - 1, n // 2, -1))


def enumerate_srim(field: Field, a: FieldElement, n: int) -> Iterator[Poly]:
    """The irreducible polynomials of enumerate_srm(field, a, n,
    "nontrivial"), in its order: every nontrivial a-srim of degree 2n."""
    return (f for f in enumerate_srm(field, a, n, "nontrivial") if is_irreducible(f))


def si_enumerated(field: Field, a: FieldElement, n: int) -> int:
    """Count of nontrivial degree-2n a-srm polynomials that are
    irreducible, straight from the exhaustive stream."""
    return sum(1 for _ in enumerate_srim(field, a, n))


def si_product(field: Field, a: FieldElement, n: int) -> Poly:
    """Product of all nontrivial a-srim polynomials of degree 2n.

    Computed two ways: directly from the enumeration, and as the Moebius
    product over d | n with n/d odd of m_poly(d)^mu(n/d) with the
    mu = -1 terms divided out exactly.  Disagreement raises."""
    a = field.element(a)
    direct = Poly.one(field)
    for f in enumerate_srim(field, a, n):
        direct = direct * f
    numerator = Poly.one(field)
    denominator = Poly.one(field)
    for d in _master_divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            numerator = numerator * m_poly(field, a, d)
        elif mu == -1:
            denominator = denominator * m_poly(field, a, d)
    quo, rem = divmod(numerator, denominator)
    if rem:
        raise VerificationError("the Moebius product did not divide exactly")
    if quo != direct:
        raise VerificationError("enumerated product disagrees with the Moebius product")
    return direct


@dataclass(frozen=True)
class CensusRow:
    q: int
    a: FieldElement
    n: int
    delta: int
    si_formula: int
    si_enumerated: int | None

    @property
    def agreement(self) -> bool | None:
        if self.si_enumerated is None:
            return None
        return self.si_formula == self.si_enumerated

    def items(self) -> Iterator[tuple[str, object]]:
        # (column, JSON value) in COLUMNS order, for JSON rows and CSV lines
        for name in COLUMNS:
            yield name, str(self.a) if name == "a" else getattr(self, name)


def census_row(field: Field, a: FieldElement, n: int, enumerate_too: bool = True) -> CensusRow:
    a = field.element(a)
    return CensusRow(
        q=field.q,
        a=a,
        n=n,
        delta=delta(field, a, n),
        si_formula=si_formula(field, a.is_square(), n),
        si_enumerated=si_enumerated(field, a, n) if enumerate_too else None,
    )


def census_sweep(fields: list[Field], nmax: int) -> list[CensusRow]:
    """One row per (field, nonzero a, n <= nmax), in deterministic order."""
    if nmax < 1:
        raise DomainError("nmax must be >= 1")
    # (q - 1)(q + ... + q^nmax) = q^(nmax+1) - q
    within_budget(sum(capped_power(fld.q, nmax + 1) - fld.q for fld in fields), "the census grid")
    rows = []
    for field in fields:
        for a in field.units():
            for n in range(1, nmax + 1):
                rows.append(census_row(field, a, n))
    return rows


def census_csv(rows: list[CensusRow]) -> str:
    # null as an empty cell, booleans as JSON spells them
    lines = [",".join("" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
                      for _, v in row.items()) for row in rows]
    return "\n".join([CSV_HEADER] + lines) + "\n"
