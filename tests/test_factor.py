import itertools
import math
import random

import pytest

from gfrecip import factor, poly
from gfrecip import (
    DomainError,
    Field,
    Poly,
    census_row,
    factor_count,
    factorize,
    is_irreducible,
    m_poly,
)

F3 = Field(3)
F5 = Field(5)
F9 = Field(3, 2)


def brute_force_irreducible(f):
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    field = f.field
    f = f.monic()
    pool = list(field.elements())
    for d in range(1, f.degree // 2 + 1):
        for lower in itertools.product(pool, repeat=d):
            g = Poly(field, lower + (field.one,))
            if not f % g:
                return False
    return True


# -- irreducibility ---------------------------------------------------------------


def test_is_irreducible_examples():
    assert not is_irreducible(Poly(F5, [-4, 0, 1]))   # roots 2 and 3
    assert is_irreducible(Poly(F5, [2, 0, 1]))        # -2 is a non-residue
    assert is_irreducible(Poly(F5, [-1, 1]))
    with pytest.raises(DomainError):
        is_irreducible(Poly(F5, [2]))
    with pytest.raises(DomainError):
        is_irreducible(Poly(F5, []))


@pytest.mark.parametrize("field,max_degree",
                         [(F3, 4), (F5, 3), (F9, 2), (F3, 6), (Field(7), 3)])
def test_is_irreducible_against_trial_division(field, max_degree):
    pool = list(field.elements())
    for d in range(2, max_degree + 1):
        for lower in itertools.product(pool, repeat=d):
            f = Poly(field, lower + (field.one,))
            assert is_irreducible(f) == brute_force_irreducible(f), f.to_string()


def test_is_irreducible_frobenius_steps(monkeypatch):
    # an irreducible of degree n takes floor(n/2) q-power steps, no more
    calls = []
    step = factor.pow_mod

    def counted(*args):
        calls.append(args[1])
        return step(*args)

    monkeypatch.setattr(factor, "pow_mod", counted)
    f = Poly(F3, [1, 1, 0, 1, 0, 0, 0, 1])  # x^7 + x^3 + x + 1
    assert is_irreducible(f)
    assert calls == [3, 3, 3]
    for n, f in ((1, Poly(F5, [1, 1])), (2, Poly(F5, [2, 0, 1])), (4, Poly(F3, [2, 1, 0, 0, 1]))):
        calls.clear()
        assert is_irreducible(f)
        assert len(calls) == n // 2, f.to_string()


def test_factorize_builds_each_setup_once(monkeypatch):
    # the distinct-degree walk and every equal-degree draw power by a
    # modulus object that keeps its reduction set-up
    builds, kept = {}, []
    build = poly._barrett

    def counted(f):
        kept.append(f)  # alive, so no other object takes its id
        builds[id(f)] = builds.get(id(f), 0) + 1
        return build(f)

    monkeypatch.setattr(poly, "_barrett", counted)
    factorize(m_poly(F3, 2, 5), seed=1)
    assert builds and max(builds.values()) == 1


def test_barrett_setups_only_for_long_ladders(monkeypatch):
    # below degree 8 pow_mod builds a Barrett set-up only once n times the
    # exponent's bit length reaches BARRETT_MIN_WORK: Ben-Or's steps by q = 9
    # on degree <= 7 do not (n * 4 < 32), equal-degree draws by (125^2 - 1)/2
    # on the small blocks of F_125 do (13 bits)
    degrees = []
    build = poly._barrett

    def counted(f):
        degrees.append(f.degree)
        return build(f)

    monkeypatch.setattr(poly, "_barrett", counted)
    f = Poly.from_string(F9, "1+t,2*t,1,0,0,1,1")
    assert is_irreducible(f)
    census_row(F9, F9.parse("t"), 2)
    assert degrees == []
    F125 = Field(5, 3)
    m = m_poly(F125, F125.parse("t+2"), 1)
    assert factorize(m).expand() == m
    assert degrees and min(degrees) < poly.KRON_MIN_LENGTH


def test_long_divisions_take_the_newton_quotient(monkeypatch):
    # the oracle's exact divisions f // g reach _divider through
    # Poly.__divmod__ once divisor and quotient are long, and the short
    # divisors keep the code-list walk: none of 3 codes or fewer takes it.
    # _barrett builds pow_mod's set-ups through _divider too; those calls
    # are not divisions
    depth, divisors, calls, setups = [], [], [], []
    divider, barrett, divide = poly._divider, poly._barrett, Poly.__divmod__

    def counted_divider(fld, b, k, terms, *slots):
        if not setups:
            assert depth, "_divider called outside Poly.__divmod__ and _barrett"
            divisors.append(len(b))
        return divider(fld, b, k, terms, *slots)

    def counted_barrett(f):
        setups.append(f)
        try:
            return barrett(f)
        finally:
            setups.pop()

    def counted_divmod(f, g):
        calls.append(g.degree + 1)
        depth.append(g)
        try:
            return divide(f, g)
        finally:
            depth.pop()

    monkeypatch.setattr(poly, "_divider", counted_divider)
    monkeypatch.setattr(poly, "_barrett", counted_barrett)
    monkeypatch.setattr(Poly, "__divmod__", counted_divmod)
    m = m_poly(F3, F3.element(2), 6)
    assert factorize(m).expand() == m
    assert divisors and min(divisors) > 3 >= min(calls)


def test_is_irreducible_scaling_invariant():
    f = Poly(F5, [2, 0, 1])
    assert is_irreducible(f * 3) == is_irreducible(f)


# -- factorization -------------------------------------------------------------------


def test_factorize_split_quadratic():
    result = factorize(Poly(F5, [-1, 0, 1]))
    assert result.unit == F5.one
    assert [(g.to_string(), m) for g, m in result.factors] == [("1,1", 1), ("4,1", 1)]


def test_factorize_repeated_factors():
    f = Poly(F5, [-4, 0, 1]) ** 3
    result = factorize(f)
    assert [(g.to_string(), m) for g, m in result.factors] == [("2,1", 3), ("3,1", 3)]


def test_factorize_pth_power():
    # x^5 - 2 = (x - 2)^5 over F_5; the zero-derivative path must recurse
    result = factorize(Poly(F5, [-2, 0, 0, 0, 0, 1]))
    assert [(g.to_string(), m) for g, m in result.factors] == [("3,1", 5)]
    # (x^2 + 1)^3 over F_3 likewise
    result = factorize(Poly(F3, [1, 0, 1]) ** 3)
    assert [(g.to_string(), m) for g, m in result.factors] == [("1,0,1", 3)]
    # a p^2-th power: the p-th root is itself a p-th power
    result = factorize(Poly(F3, [1, 0, 1]) ** 9)
    assert [(g.to_string(), m) for g, m in result.factors] == [("1,0,1", 9)]
    # over F_9 the p-th root takes a Frobenius inverse of each coefficient
    t = F9.element([0, 1])
    result = factorize((Poly(F9, [t, 1]) * Poly(F9, [1, 1]) ** 2) ** 3)
    assert [(g.to_string(), m) for g, m in result.factors] == [("t,1", 3), ("1,1", 6)]


def _squarefree_corpus():
    # (field, monic f): seeded squarefree products, repeated factors, p-th
    # powers and mixed ones, over F_3, F_7, F_9 and F_5^3
    rng = random.Random(28)
    F7, F125 = Field(7), Field(5, 3)
    out = []
    for field in (F3, F7, F9, F125):
        def draw(n):
            return Poly(field, [field._index_code(rng.randrange(field.q)) for _ in range(n)]
                        + [1])
        for n in range(1, 7):
            out += [(field, draw(n)) for _ in range(4)]
        out += [(field, draw(1) ** 2 * draw(2)), (field, draw(2) ** 3 * draw(1) ** 2),
                (field, draw(1) ** field.p), (field, (draw(1) * draw(2) ** 2) ** field.p)]
    out += [(F3, Poly(F3, [1, 0, 1]) ** 9), (F3, Poly(F3, [1, 0, 1]) ** 3 * Poly(F3, [1, 1]))]
    t = F9.element([0, 1])
    out.append((F9, (Poly(F9, [t, 1]) * Poly(F9, [1, 1]) ** 2) ** 3))
    out.append((F9, (Poly(F9, [1, t, 1]) * Poly(F9, [t, 0, 1]) ** 2) ** 3))
    return out


def test_squarefree_parts_group_the_factors():
    # the parts are the irreducible factors grouped by multiplicity, each
    # multiplicity counted by dividing f until the factor no longer divides;
    # they multiply back to f
    for field, f in _squarefree_corpus():
        parts = factor._squarefree_parts(f)
        grouped = {}
        for irr, mult in factorize(f).factors:
            count, rest = 0, f
            while not rest % irr:
                rest, count = rest // irr, count + 1
            assert count == mult, (f, irr)
            grouped[mult] = grouped.get(mult, Poly.one(field)) * irr
        assert parts == grouped, f
        product = Poly.one(field)
        for mult, part in parts.items():
            assert part.is_monic and part.degree > 0
            product = product * part ** mult
        assert product == f


def test_squarefree_input_takes_one_gcd(monkeypatch):
    # a squarefree input is its own part after gcd(f, f') = 1: one gcd and no
    # division; an input with a repeated factor goes on past it
    gcds, divisions = [], []
    count_gcd, divide = factor.gcd, Poly.__divmod__

    def counted_gcd(f, g):
        gcds.append(f)
        return count_gcd(f, g)

    def counted_divmod(f, g):
        divisions.append(f)
        return divide(f, g)

    monkeypatch.setattr(factor, "gcd", counted_gcd)
    monkeypatch.setattr(Poly, "__divmod__", counted_divmod)
    for field, f in _squarefree_corpus():
        gcds.clear()
        divisions.clear()
        parts = factor._squarefree_parts(f)
        if list(parts) == [1]:
            assert (len(gcds), len(divisions)) == (1, 0), f
            assert parts[1] == f
        else:
            assert len(gcds) > 1 and divisions, f


def test_factorize_master_poly_structure():
    # x^10 - 2 over F_3: one copy of x^2 - 2, the rest irreducible quartics
    f = Poly(F3, [-2] + [0] * 9 + [1])
    result = factorize(f)
    degrees = sorted(g.degree for g, m in result.factors for _ in range(m))
    assert degrees == [2, 4, 4]
    assert (Poly(F3, [-2, 0, 1]), 1) in result.factors


def test_factorize_nonmonic_unit():
    f = Poly(F5, [-1, 0, 1]) * 2
    result = factorize(f)
    assert result.unit == F5.element(2)
    assert result.expand() == f


def test_factorize_constant_and_zero():
    assert factorize(Poly(F5, [3])).factors == ()
    assert factorize(Poly(F5, [3])).unit == F5.element(3)
    with pytest.raises(DomainError):
        factorize(Poly(F5, []))


def test_factor_ordering_is_canonical():
    # sorted by (degree, coefficient sequence)
    f = Poly(F5, [2, 0, 1]) * Poly(F5, [1, 1]) * Poly(F5, [3, 1])
    factors = [g.to_string() for g, _ in factorize(f).factors]
    assert factors == ["1,1", "3,1", "2,0,1"]


@pytest.mark.parametrize("field", [F3, F5, F9])
def test_reconstruction_determinism_bookkeeping(field):
    rng = random.Random(99)
    pool = list(field.elements())
    for _ in range(120):
        degree = rng.randrange(1, 9)
        coeffs = [pool[rng.randrange(field.q)] for _ in range(degree)]
        lead = pool[rng.randrange(1, field.q)]
        f = Poly(field, coeffs + [lead])
        first = factorize(f, seed=1729)
        second = factorize(f, seed=1729)
        assert first == second
        assert factorize(f, seed=42) == first  # canonical sort hides the seed
        assert first.expand() == f
        assert sum(m * g.degree for g, m in first.factors) == f.degree
        for g, _ in first.factors:
            assert g.is_monic and is_irreducible(g)


def _splitting_cases():
    # x^q - x is the product of every x - c; over F_3 the product of the
    # monic quadratics without a root is that of all irreducible ones
    for field in (F3, F5, F9):
        x = Poly.x(field)
        yield x ** field.q - x, [x - c for c in field.elements()]
    quadratics = [Poly(F3, [c0, c1, 1]) for c1 in range(3) for c0 in range(3)]
    irreducible = [g for g in quadratics if all(g(c) for c in F3.elements())]
    product = Poly.one(F3)
    for g in irreducible:
        product = product * g
    yield product, irreducible


@pytest.mark.parametrize("f, factors", list(_splitting_cases()),
                         ids=["x^3-x", "x^5-x", "x^9-x", "quadratics F_3"])
def test_equal_degree_split_when_the_draw_vanishes_on_a_factor(f, factors):
    # a random draw r of degree < 2d vanishes on one of these many small
    # factors with high probability; such a factor lands on the
    # r^((q^d-1)/2) != 1 side and the split must still be right.  The
    # expected list is in canonical order: by degree, then by coordinates
    ordered = sorted(factors, key=lambda g: (g.degree, [c.coords for c in g.coeffs]))
    expected = tuple((g, 1) for g in ordered)
    assert len(expected) == f.degree // factors[0].degree
    for seed in range(50):
        assert factorize(f, seed=seed).factors == expected


def _irreducibles(field, d):
    # every monic irreducible of degree d, in canonical order
    pool = list(field.elements())
    monic = (Poly(field, lower + (field.one,)) for lower in itertools.product(pool, repeat=d))
    return [g for g in monic if is_irreducible(g)]


EQUAL_DEGREE_CASES = [(F3, 1), (F3, 2), (F3, 3), (F3, 4), (F5, 2), (F9, 2)]


@pytest.mark.parametrize("field, d", EQUAL_DEGREE_CASES,
                         ids=[f"{fld} d={d}" for fld, d in EQUAL_DEGREE_CASES])
def test_equal_degree_splits_every_irreducible_of_degree_d(field, d, monkeypatch):
    # the product of all monic irreducibles of degree d is one distinct-degree
    # block, and the equal-degree stage must split it into exactly that list
    # for every seed.  Its draws have degree below min(deg f, 2d), f the
    # block being split: for any two of its factors such a draw is uniform mod
    # their product, so each pair splits as often as with a draw of degree
    # below deg f
    irreducible = _irreducibles(field, d)
    product = Poly.one(field)
    for g in irreducible:
        product = product * g
    expected = tuple((g, 1) for g in irreducible)
    blocks, draws = [], []
    split, draw = factor._equal_degree, factor._random_poly

    def tracked_split(f, degree, rng):
        blocks.append(f.degree)
        try:
            return split(f, degree, rng)
        finally:
            blocks.pop()

    def tracked_draw(fld, max_degree, rng):
        r = draw(fld, max_degree, rng)
        draws.append((min(blocks[-1], 2 * d) - 1, max_degree, r.degree))
        return r

    monkeypatch.setattr(factor, "_equal_degree", tracked_split)
    monkeypatch.setattr(factor, "_random_poly", tracked_draw)
    for seed in range(50):
        assert factorize(product, seed=seed).factors == expected
    assert draws
    assert all(bound == max_degree >= degree for bound, max_degree, degree in draws)


def test_agreement_with_is_irreducible():
    pool = list(F5.elements())
    for lower in itertools.product(pool, repeat=3):
        f = Poly(F5, lower + (F5.one,))
        single = factorize(f).count(True) == 1
        assert single == is_irreducible(f)


# -- factor_count -----------------------------------------------------------------------


def test_factor_count():
    quad = Poly(F5, [-4, 0, 1])
    assert factor_count(quad, True) == 2
    assert factor_count(quad, False) == 2
    assert factor_count(quad ** 2, False) == 2
    assert factor_count(quad ** 2, True) == 4
    assert factor_count(Poly(F5, [1, 1, 1]), True) == 1
    with pytest.raises(DomainError):
        factor_count(Poly(F5, [2]))


def test_factor_count_matches_factorize():
    # products of random small factors, some squared or raised to p,
    # so repeated factors and zero-derivative parts both occur
    rng = random.Random(11)
    for field in (F3, F5, F9):
        elems = list(field.elements())
        for _ in range(40):
            f = Poly(field, [rng.choice(elems[1:])])
            for _ in range(rng.randint(1, 3)):
                g = Poly(field, [rng.choice(elems) for _ in range(rng.randint(1, 3))]
                         + [field.one])
                f = f * g ** rng.choice((1, 1, 2, field.p))
            if f.degree < 1:
                continue
            full = factorize(f)
            assert factor_count(f, True) == full.count(True)
            assert factor_count(f, False) == full.count(False)


def test_factor_count_of_a_long_binomial():
    # x^1201 + 1 over F_5: every Frobenius image mod a binomial is a
    # monomial, so each of the walk's gcds divides by a binomial.  Its roots
    # are the 2402nd roots of unity that are not 1201st ones, and a primitive
    # d-th root lies in a factor of degree ord_d(5): phi(d) / ord_d(5)
    # factors for each such d
    def order(d):
        k, v = 1, 5 % d
        while v != 1 % d:
            k, v = k + 1, v * 5 % d
        return k

    def phi(d):
        return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)

    want = sum(phi(d) // order(d) for d in range(1, 2403) if 2402 % d == 0 and 1201 % d)
    assert want == 3
    assert factor_count(Poly(F5, [1] + [0] * 1200 + [1])) == want


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_factorize_against_third_party_cas():
    # independent referee at degrees the trial-division sweep cannot
    # reach exhaustively
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(4242)

    def check(field, degree):
        p = field.p
        ints = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        ours = factorize(Poly(field, ints))
        expr = sum(c * x ** i for i, c in enumerate(ints))
        _, ref_factors = sympy.factor_list(sympy.Poly(expr, x, modulus=p))
        ref = sorted(
            (tuple(int(c) % p for c in reversed(g.monic().all_coeffs())), m)
            for g, m in ref_factors)
        got = sorted(
            (tuple(c.coords[0] for c in g.coeffs), m)
            for g, m in ours.factors)
        assert got == ref

    for field in (F3, F5):
        for _ in range(150):
            check(field, rng.randrange(2, 11))
    # degrees 40-200, where products and pow_mod take the Kronecker path,
    # with residues of one byte (p <= 127) and of two or three
    for p, degree in ((3, 40), (3, 200), (7, 60), (7, 120), (8191, 40), (8191, 100),
                      (257, 100), (65537, 40)):
        check(Field(p), degree)
