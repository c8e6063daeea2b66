"""The scaled reciprocal operator and its structure theory.

For a monic f of degree n with f(0) != 0 and a nonzero parameter a, the
a-reciprocal is (x^n / f(0)) * f(a/x): the monic polynomial whose roots
are a/alpha for the roots alpha of f.  Fixed points of the operator
("a-self-reciprocal" polynomials, a-srm for short) split by their
constant term: even degree 2m gives the trivial branch b_0 = -a^m and
the nontrivial branch b_0 = a^m; odd degree forces a to be a square and
b_0 = +-sqrt(a)^n.

Beyond detection and classification this module provides the exact
structural factor stripping (powers of x^2 - a, and powers of x -+
sqrt(a) for nontrivial inputs), Dickson polynomials, the quadratic
substitution x^n f(x + a/x) and its inverse, and the quadratic-character
parity indicator (-1)^n a^(n(n-2)) f(sqrt(a)) f(-sqrt(a)) that decides
whether the number of irreducible factors is even or odd without
factoring.  All checks stay inside F_q: f(sqrt(a)) f(-sqrt(a)) is
computed as A^2 - a*B^2 from the even/odd coefficient sums, so a never
needs a root in the base field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, VerificationError
from .field import FieldElement
from .poly import Poly, discriminant


class SrmVerdict(enum.Enum):
    NOT_SELF_RECIPROCAL = "not_self_reciprocal"
    ODD_PLUS = "odd_srm_plus"      # odd degree, b_0 = +sqrt(a)^n
    ODD_MINUS = "odd_srm_minus"    # odd degree, b_0 = -sqrt(a)^n
    TRIVIAL = "trivial"            # degree 2m, b_0 = -a^m
    NONTRIVIAL = "nontrivial"      # degree 2m, b_0 = +a^m


@dataclass(frozen=True)
class SrmClassification:
    verdict: SrmVerdict
    half_degree: int | None = None  # m when the degree is 2m

    def __str__(self):
        return self.verdict.value


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ParityVerdict:
    verdict: Parity
    indicator: FieldElement
    reason: str | None = None


class SqrtPairEval(NamedTuple):
    value: FieldElement      # f(sqrt(a)) * f(-sqrt(a)), always in F_q
    even_part: FieldElement  # A = sum b_{2i} a^i
    odd_part: FieldElement   # B = sum b_{2i+1} a^i


def _x2_minus_a(a: FieldElement) -> Poly:
    """The trivial a-srm x^2 - a."""
    return Poly(a.field, (-a, a.field.zero, a.field.one))


def _parity_of(count: int) -> Parity:
    """The verdict a factor count of this parity calls for."""
    return Parity.EVEN if count % 2 == 0 else Parity.ODD


def _check_args(f: Poly, a: FieldElement, op: str) -> FieldElement:
    a = f.field.element(a)
    if not a:
        raise DomainError(f"{op} requires a nonzero parameter")
    if not f.is_monic:
        raise DomainError(f"{op} requires a monic polynomial")
    if not f[0]:
        raise DomainError(f"{op} requires a nonzero constant term")
    return a


def a_reciprocal(f: Poly, a: FieldElement) -> Poly:
    """The monic polynomial with coefficients b_{n-i} a^(n-i) / b_0.

    Sends each root alpha to a/alpha; an involution, and multiplicative
    over products."""
    a = _check_args(f, a, "a_reciprocal")
    fld, b = f.field, f._codes
    reduce = fld._reduce
    out = []
    scale = fld._inv(b[0])  # a^i / b_0
    for c in b:
        out.append(reduce(c * scale))
        scale = reduce(scale * a.code)
    return Poly._raw(fld, out[::-1])


def is_a_self_reciprocal(f: Poly, a: FieldElement) -> bool:
    """Whether f is its own a-reciprocal, i.e. b_{n-i} b_0 == b_i a^i
    for all i."""
    return a_reciprocal(f, _check_args(f, a, "is_a_self_reciprocal")) == f


def classify(f: Poly, a: FieldElement) -> SrmClassification:
    """Sort f into the five-way self-reciprocal taxonomy.

    Even degree 2m splits on the constant term (-a^m trivial / +a^m
    nontrivial); odd degree can only occur for square a and splits on
    b_0 = +-sqrt(a)^n, labelled against the canonical square root.
    """
    a = _check_args(f, a, "classify")
    if not is_a_self_reciprocal(f, a):
        return SrmClassification(SrmVerdict.NOT_SELF_RECIPROCAL)
    n = f.degree
    if n % 2 == 0:
        m = n // 2
        am = a ** m
        if f[0] == am:
            return SrmClassification(SrmVerdict.NONTRIVIAL, m)
        if f[0] == -am:
            return SrmClassification(SrmVerdict.TRIVIAL, m)
        raise VerificationError("self-reciprocal constant term outside +-a^m")
    root = a.sqrt()
    if root is None:
        raise VerificationError(
            "odd-degree self-reciprocal polynomial found for a non-square parameter")
    sn = root ** n
    if f[0] == sn:
        return SrmClassification(SrmVerdict.ODD_PLUS)
    if f[0] == -sn:
        return SrmClassification(SrmVerdict.ODD_MINUS)
    raise VerificationError("odd-degree constant term outside +-sqrt(a)^n")


def _strip(f: Poly, factor: Poly) -> tuple[int, Poly]:
    """(k, f / factor^k) for the largest k with factor^k dividing f."""
    k = 0
    while True:
        quo, rem = divmod(f, factor)
        if rem:
            return k, f
        f = quo
        k += 1


def strip_x2_minus_a(f: Poly, a: FieldElement) -> tuple[int, Poly]:
    """Write an even-degree a-srm f exactly as (x^2 - a)^k * g with g a
    nontrivial a-srm not divisible by x^2 - a.  k is odd exactly for
    trivial f, even (possibly zero) for nontrivial f."""
    a = f.field.element(a)
    kind = classify(f, a)
    if kind.verdict not in (SrmVerdict.TRIVIAL, SrmVerdict.NONTRIVIAL):
        raise DomainError("expected an a-self-reciprocal polynomial of even degree")
    k, g = _strip(f, _x2_minus_a(a))
    if (k % 2 == 1) != (kind.verdict is SrmVerdict.TRIVIAL):
        raise VerificationError("stripping parity disagrees with the classification")
    if classify(g, a).verdict is not SrmVerdict.NONTRIVIAL:
        raise VerificationError("residual factor is not a nontrivial a-srm")
    return k, g


def strip_linear_sqrt(f: Poly, a: FieldElement, sign: int) -> tuple[int, Poly]:
    """Strip the full (x - sign*sqrt(a))^k factor from a nontrivial a-srm
    f not divisible by x^2 - a.  The exponent k comes out even and the
    quotient is again a nontrivial a-srm not vanishing at the root."""
    a = f.field.element(a)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    root = a.sqrt() if a else None
    if not a or root is None:
        raise DomainError("the parameter must be a nonzero square")
    if classify(f, a).verdict is not SrmVerdict.NONTRIVIAL:
        raise DomainError("expected a nontrivial a-srm polynomial")
    if sign < 0:
        root = -root
    if not f % _x2_minus_a(a):
        raise DomainError("polynomial is divisible by x^2 - a; strip that first")
    k, g = _strip(f, Poly(f.field, (-root, f.field.one)))
    if not g(root):
        raise VerificationError("the root survives stripping its linear factor")
    if k % 2 != 0:
        raise VerificationError("linear stripping produced an odd exponent")
    if classify(g, a).verdict is not SrmVerdict.NONTRIVIAL:
        raise VerificationError("residual factor is not a nontrivial a-srm")
    return k, g


def dickson(k: int, a: FieldElement) -> Poly:
    """Degree-k Dickson polynomial of the first kind with parameter a:
    D_0 = 2, D_1 = x, D_k = x*D_{k-1} - a*D_{k-2}, so that
    D_k(y + a/y) = y^k + (a/y)^k."""
    if k < 0:
        raise DomainError("Dickson index must be nonnegative")
    if not isinstance(a, FieldElement) or not a:
        raise DomainError("Dickson parameter must be a nonzero field element")
    fld = a.field
    prev = Poly.constant(fld, 2)
    if k == 0:
        return prev
    cur = Poly.x(fld)
    x = cur
    for _ in range(k - 1):
        prev, cur = cur, x * cur - a * prev
    return cur


def quadratic_transform(f: Poly, a: FieldElement) -> Poly:
    """x^n f(x + a/x) for monic f of degree n >= 1: the doubled-degree
    nontrivial a-srm whose roots are the solutions of x + a/x = alpha.
    Horner's rule in x^2 + a = x (x + a/x), each step adding one term
    b_i x^(n-i)."""
    a = f.field.element(a)
    if not a:
        raise DomainError("quadratic_transform requires a nonzero parameter")
    if not f.is_monic or f.degree < 1:
        raise DomainError("quadratic_transform requires a monic polynomial of degree >= 1")
    fld = f.field
    n = f.degree
    base = Poly(fld, (a, fld.zero, fld.one))  # x^2 + a
    out = Poly.one(fld)
    for i in range(n - 1, -1, -1):
        out = out * base + Poly._raw(fld, [0] * (n - i) + [f._codes[i]])
    if classify(out, a).verdict is not SrmVerdict.NONTRIVIAL:
        raise VerificationError("quadratic transform output failed to classify as nontrivial")
    return out


def inverse_quadratic_transform(f: Poly, a: FieldElement) -> Poly:
    """The unique monic g of degree n with x^n g(x + a/x) == f, for a
    nontrivial a-srm f of degree 2n: g = b_n + sum b_{2n-i} D_{n-i,a}."""
    a = f.field.element(a)
    if f.degree < 2 or classify(f, a).verdict is not SrmVerdict.NONTRIVIAL:
        raise DomainError("expected a nontrivial a-srm polynomial of degree >= 2")
    n = f.degree // 2
    g = Poly.constant(f.field, f[n])
    for i in range(n):
        g = g + dickson(n - i, a) * f[2 * n - i]
    if quadratic_transform(g, a) != f:
        raise VerificationError("quadratic transform round trip failed")
    return g


def eval_at_sqrt_pair(f: Poly, a: FieldElement) -> SqrtPairEval:
    """f(sqrt(a)) * f(-sqrt(a)) computed inside F_q as A^2 - a*B^2, where
    A and B are the even- and odd-index coefficient sums weighted by
    powers of a.  Works whether or not a is a square."""
    a = f.field.element(a)
    if not a:
        raise DomainError("eval_at_sqrt_pair requires a nonzero parameter")
    fld = f.field
    reduce = fld._reduce
    b = f._codes
    even = odd = 0
    power = 1  # a^i
    for i in range(0, len(b), 2):
        even += b[i] * power
        if i + 1 < len(b):
            odd += b[i + 1] * power
        power = reduce(power * a.code)
    even, odd = FieldElement(fld, reduce(even)), FieldElement(fld, reduce(odd))
    return SqrtPairEval(even * even - a * odd * odd, even, odd)


def _indicator(f: Poly, a: FieldElement) -> FieldElement:
    """(-1)^n a^(n(n-2)) f(sqrt(a)) f(-sqrt(a)) for f of degree 2n."""
    n = f.degree // 2
    value = eval_at_sqrt_pair(f, a).value * a ** (n * (n - 2))
    return -value if n % 2 == 1 else value


def parity_indicator(f: Poly, a: FieldElement) -> ParityVerdict:
    """Decide the parity of the number of irreducible factors (counted
    with multiplicity) of a nontrivial a-srm f of degree 2n.

    The indicator (-1)^n a^(n(n-2)) f(sqrt(a)) f(-sqrt(a)) is a nonzero
    square exactly when the count is even.  A vanishing indicator means f
    has sqrt(a) or -sqrt(a) among its roots, where the criterion does not
    apply; strip those roots first (their multiplicity is even, so the
    parity is unchanged)."""
    a = f.field.element(a)
    if f.degree < 2 or classify(f, a).verdict is not SrmVerdict.NONTRIVIAL:
        raise DomainError("expected a nontrivial a-srm polynomial of degree >= 2")
    indicator = _indicator(f, a)
    if not indicator:
        return ParityVerdict(Parity.NOT_APPLICABLE, indicator,
                             "f vanishes at +-sqrt(a); the criterion needs "
                             "f(sqrt(a))f(-sqrt(a)) != 0")
    if indicator.is_square():
        return ParityVerdict(Parity.EVEN, indicator)
    return ParityVerdict(Parity.ODD, indicator)


def discriminant_identity_check(f: Poly, a: FieldElement) -> bool:
    """Check D(f) == (-1)^n a^(n(n-2)) f(sqrt(a)) f(-sqrt(a)) D(g)^2 for
    a nontrivial a-srm f of degree 2n and its inverse transform g."""
    a = f.field.element(a)
    g = inverse_quadratic_transform(f, a)
    lhs = discriminant(f)
    dg = discriminant(g)
    return lhs == _indicator(f, a) * dg * dg
