"""Factorization oracle over F_q, odd characteristic.

This module is the independent referee for every structural claim in the
package: a Ben-Or irreducibility test and a complete factorization built
from squarefree decomposition (including the zero-derivative p-th-power
reduction), distinct-degree splitting, and Cantor-Zassenhaus equal-degree
splitting with the odd-q exponent (q^d - 1)/2.

The oracle has one q-power walk, the distinct-degree stage, and Ben-Or's
test is its first block.  Each of its steps is one ``pow_mod`` by the
current remainder.  Each equal-degree draw r is one ``_power_gcd``
call, gcd(r^((q^d-1)/2) - 1, f): one ladder and one packed gcd on f's
set-up, with no ``Poly`` built between them (see poly.py).  A factor on which r vanishes lands
on the side where r^((q^d-1)/2) != 1, so it needs no separate gcd(r, f).
A draw has degree below 2d, not below deg f: a draw splits two factors
g and h of degree d exactly when r mod g and r mod h fall on different
sides, and r mod gh, which fixes both (CRT), is r itself, uniform over
all of F_q[x]/(gh).  So every pair of factors splits as often as with a
draw of full degree (Cantor & Zassenhaus, Math. Comp. 36 (1981); von zur
Gathen & Gerhard, Modern Computer Algebra, 14.3), and the draw costs
2d random codes and a short base for the ladder.
Every modulus that takes ``pow_mod``'s Barrett ladder builds its
reduction set-up once (see poly.py), however many steps or draws power
by it: from degree 8 on, and below that from degree 2 on a long
exponent, as the draws' (q^d - 1)/2 mostly are.

Randomness in the equal-degree stage comes from a per-call generator
seeded by an explicit parameter (default DEFAULT_SEED), so two runs with
the same seed produce identical results and the factor list is globally
sorted by (degree, coefficient sequence), making output canonical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError
from .field import Field, FieldElement
from .poly import Poly, _power_gcd, gcd, pow_mod

DEFAULT_SEED = 1729


def is_irreducible(f: Poly) -> bool:
    """Ben-Or test: f of degree n is irreducible over F_q iff the first
    block of the distinct-degree walk of monic f has d == n.

    This holds for any f, squarefree or not.  The first d with
    gcd(x^(q^d) - x, f) != 1 is the least degree of an irreducible
    factor of f, and a reducible f of degree n has a factor of degree
    <= n/2, which the walk reaches before it stops.  Compare d, not the
    block's degree: over F_3, x^2 + x is one block of degree 2 at d = 1.
    An irreducible f takes floor(n/2) Frobenius steps.
    """
    n = f.degree
    if n < 1:
        raise DomainError("irreducibility is undefined for constants")
    d, _ = next(_distinct_degree(f.monic()))
    return d == n


@dataclass(frozen=True)
class Factorization:
    """unit * product(poly^multiplicity) == the factorized input.

    Factors are monic irreducible, sorted by (degree, coefficient
    sequence) so equal inputs yield identical objects.
    """

    unit: FieldElement
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly.constant(self.unit.field, self.unit)
        for poly, mult in self.factors:
            out = out * poly ** mult
        return out

    def count(self, with_multiplicity: bool = True) -> int:
        if with_multiplicity:
            return sum(m for _, m in self.factors)
        return len(self.factors)


def _sort_key(poly: Poly):
    return (poly.degree, tuple(c.coords for c in poly.coeffs))


def _pth_root(f: Poly) -> Poly:
    # f has zero derivative, i.e. f(x) = u(x^p) with coefficients in the
    # image of Frobenius; recover u by inverse Frobenius on each stride.
    fld = f.field
    p = fld.p
    coeffs = [f[i].frobenius(fld.e - 1) for i in range(0, f.degree + 1, p)]
    return Poly(fld, coeffs)


def _squarefree_parts(f: Poly) -> dict[int, Poly]:
    """Multiplicity -> squarefree monic part; the parts are pairwise
    coprime and product(part^mult) == f (monic input)."""
    fld = f.field
    out: dict[int, Poly] = {}

    def accumulate(g: Poly, scale: int):
        # a p-th power has g' == 0, so c == g and all of it goes to the
        # p-th root below; a squarefree g has c == 1 and is its own part
        c = gcd(g, g.derivative())
        if not c.degree:
            out[scale] = out[scale] * g if scale in out else g
            return
        w = g // c
        i = 1
        while w.degree > 0:
            y = gcd(w, c)
            z = w // y
            if z.degree > 0:
                key = i * scale
                out[key] = out[key] * z if key in out else z
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            accumulate(_pth_root(c), scale * fld.p)

    accumulate(f, 1)
    return out


def _distinct_degree(f: Poly):
    """Yield (d, product of the degree-d irreducible factors of f) for a
    squarefree monic f, d increasing.  The walk stops when 2(d + 1)
    exceeds the remainder's degree: a remainder with no factor of degree
    <= d is then irreducible, and it comes last."""
    fld = f.field
    h = x = Poly.x(fld)
    d = 0
    while 2 * (d + 1) <= f.degree:
        d += 1
        h = pow_mod(h, fld.q, f)
        g = gcd(h - x, f)
        if g.degree > 0:
            yield d, g
            f = f // g
    if f.degree > 0:
        yield f.degree, f


def _random_poly(fld: Field, max_degree: int, rng: random.Random) -> Poly:
    # each coefficient is a uniform draw of i < q, taken to the i-th canonical code
    code, draw, q = fld._index_code, rng.randrange, fld.q
    return Poly._raw(fld, [code(draw(q)) for _ in range(max_degree + 1)])


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    irreducibles, by draws of degree below 2d (see the module docstring);
    valid only for odd q."""
    if f.degree == d:
        return [f]
    fld = f.field
    exponent = (fld.q ** d - 1) // 2
    while True:
        r = _random_poly(fld, min(f.degree, 2 * d) - 1, rng)
        if r.degree < 1:
            continue
        g = _power_gcd(r, exponent, f)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factorize(f: Poly, seed: int = DEFAULT_SEED) -> Factorization:
    """Complete factorization of a nonzero polynomial into monic
    irreducibles with multiplicities, deterministic for a fixed seed."""
    if not f:
        raise DomainError("cannot factor the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return Factorization(unit, ())
    rng = random.Random(seed)
    found: list[tuple[Poly, int]] = []
    for mult, part in sorted(_squarefree_parts(f.monic()).items()):
        for d, block in _distinct_degree(part):
            for irr in _equal_degree(block, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda item: _sort_key(item[0]))
    return Factorization(unit, tuple(found))


def factor_count(f: Poly, with_multiplicity: bool = True, seed: int = DEFAULT_SEED) -> int:
    """Number of irreducible factors of a nonconstant polynomial.

    Counting needs no equal-degree splitting: a distinct-degree block of
    degree-d irreducibles holds deg(block) / d of them.  The count is
    therefore the same for every seed, which is kept for symmetry with
    ``factorize``."""
    if f.degree < 1:
        raise DomainError("factor counts are defined for nonconstant polynomials")
    total = 0
    for mult, part in _squarefree_parts(f.monic()).items():
        distinct = sum(block.degree // d for d, block in _distinct_degree(part))
        total += distinct * mult if with_multiplicity else distinct
    return total
