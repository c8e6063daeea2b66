import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gfrecip import (
    DomainError,
    Field,
    FieldMismatchError,
    Poly,
    discriminant,
    gcd,
    is_squarefree,
    pow_mod,
    resultant,
)

F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)


def poly_strategy(field, max_degree=6, min_degree=0):
    return st.lists(st.integers(0, field.q - 1),
                    min_size=min_degree + 1, max_size=max_degree + 1).map(
        lambda ints: Poly(field, [list(field.elements())[i] for i in ints]))


# -- representation ------------------------------------------------------------


def test_canonical_form():
    assert Poly(F5, [1, 2, 0, 0]).coeffs == (F5.element(1), F5.element(2))
    zero = Poly(F5, [0, 0])
    assert not zero
    assert zero.degree == -1
    assert zero == Poly(F5, [])


def test_degree_and_lc():
    f = Poly(F5, [4, 1, 2, 4, 3, 1, 1])
    assert f.degree == 6
    assert f.lc() == F5.one
    assert f.is_monic
    with pytest.raises(DomainError):
        Poly(F5, []).lc()


def test_getitem():
    f = Poly(F5, [1, 2])
    assert f[0] == 1 and f[1] == 2 and f[5] == 0
    with pytest.raises(IndexError):
        f[-1]


def test_string_round_trip():
    f = Poly.from_string(F5, "4,1,2,4,3,1,1")
    assert f.to_string() == "4,1,2,4,3,1,1"
    assert Poly.from_string(F5, f.to_string()) == f
    assert Poly(F5, []).to_string() == "0"
    assert Poly.from_string(F5, "0") == Poly(F5, [])
    g = Poly.from_string(F9, "2+t,0,1")
    assert g.degree == 2 and g[0] == F9.element([2, 1])
    assert Poly.from_string(F9, g.to_string()) == g


def test_malformed_strings():
    for bad in ("", "1,,2", "x,1", "1;2"):
        with pytest.raises(DomainError):
            Poly.from_string(F5, bad)


def test_pretty():
    assert Poly.from_string(F5, "4,1,2,4,3,1,1").pretty() == "x^6+x^5+3x^4+4x^3+2x^2+x+4"
    assert Poly(F5, []).pretty() == "0"
    assert Poly(F5, [4]).pretty() == "4"
    assert Poly(F5, [0, 1]).pretty() == "x"
    assert Poly(F9, [[1, 1], 0, 1]).pretty() == "x^2+(1+t)"


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Poly(F5, [1]) + Poly(F7, [1])


# -- ring operations -------------------------------------------------------------


@given(poly_strategy(F5), poly_strategy(F5))
def test_add_sub_round_trip(f, g):
    assert (f + g) - g == f


@given(poly_strategy(F9, 4), poly_strategy(F9, 4), poly_strategy(F9, 4))
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


def test_scalar_and_int_coercion():
    f = Poly(F5, [1, 1])
    assert 2 * f == Poly(F5, [2, 2])
    assert f * F5.element(0) == Poly(F5, [])
    assert f + 4 == Poly(F5, [0, 1])


@given(poly_strategy(F5, 8), poly_strategy(F5, 4, min_degree=0))
def test_divmod_round_trip(f, g):
    if not g:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(poly_strategy(F9, 6), poly_strategy(F9, 3))
def test_divmod_round_trip_extension(f, g):
    if not g:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@pytest.mark.parametrize("p, e", [(17, 2), (3, 6)])
def test_long_products_and_divisions_extension(p, e):
    # degrees 150-300: an output coefficient sums up to 151 products of
    # codes before it is reduced
    field = Field(p, e)
    rng = random.Random(p * e)

    def random_poly(degree):
        coeffs = [[rng.randrange(p) for _ in range(e)] for _ in range(degree)]
        return Poly(field, coeffs + [[rng.randrange(1, p)] + [0] * (e - 1)])

    for df, dg in ((300, 150), (220, 217), (150, 150)):
        f, g = random_poly(df), random_poly(dg)
        assert (f.degree, g.degree) == (df, dg)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        fg = f * g
        assert fg.degree == df + dg
        for _ in range(4):
            x = field.element([rng.randrange(p) for _ in range(e)])
            assert fg(x) == f(x) * g(x)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly(F5, [1]), Poly(F5, []))


def test_exact_division_master_poly():
    # x^10 - 2 over F_3 is exactly divisible by x^2 - 2
    F3 = Field(3)
    f = Poly(F3, [-2] + [0] * 9 + [1])
    q, r = divmod(f, Poly(F3, [-2, 0, 1]))
    assert not r
    assert q.degree == 8


def test_eval():
    f = Poly.from_string(F5, "4,1,2,4,3,1,1")
    assert f(2) == F5.zero
    assert f(F5.element(0)) == F5.element(4)


@given(poly_strategy(F5), poly_strategy(F5), st.integers(0, 4))
def test_eval_homomorphism(f, g, c):
    x = F5.element(c)
    assert (f * g)(x) == f(x) * g(x)


def test_pow():
    f = Poly(F5, [1, 1])
    assert f ** 0 == Poly.one(F5)
    assert f ** 3 == f * f * f
    with pytest.raises(DomainError):
        f ** -1


# -- gcd / pow_mod ----------------------------------------------------------------


def test_gcd_examples():
    assert gcd(Poly(F5, [-1, 0, 1]), Poly(F5, [-1, 1])) == Poly(F5, [-1, 1])
    assert gcd(Poly(F5, []), Poly(F5, [])) == Poly(F5, [])
    # result is monic regardless of input scaling
    f = Poly(F5, [-1, 0, 1]) * 3
    g = Poly(F5, [-1, 1]) * 2
    assert gcd(f, g) == Poly(F5, [-1, 1])


@given(poly_strategy(F5, 5), poly_strategy(F5, 5))
def test_gcd_divides_both(f, g):
    d = gcd(f, g)
    if d:
        assert not f % d
        assert not g % d


def test_pow_mod_against_naive():
    m = Poly(F5, [1, 0, 0, 1])
    for coeffs in itertools.product(range(5), repeat=3):
        base = Poly(F5, coeffs)
        for k in (0, 1, 2, 3, 7):
            assert pow_mod(base, k, m) == (base ** k) % m


def test_pow_mod_preconditions():
    with pytest.raises(DomainError):
        pow_mod(Poly(F5, [1, 1]), 2, Poly(F5, [3]))
    with pytest.raises(DomainError):
        pow_mod(Poly(F5, [1, 1]), -1, Poly(F5, [1, 1]))


# -- resultant ----------------------------------------------------------------------


def test_resultant_examples():
    assert resultant(Poly(F5, [-1, 1]), Poly(F5, [1, 1])) == F5.element(2)
    assert resultant(Poly(F5, [-4, 0, 1]), Poly(F5, [-2, 1])) == F5.zero
    f = Poly(F5, [-1, 1]) * Poly(F5, [2, 1])
    g = Poly(F5, [-1, 1]) * Poly(F5, [3, 1])
    assert resultant(f, g) == F5.zero
    with pytest.raises(DomainError):
        resultant(Poly(F5, []), Poly(F5, [1, 1]))


def _poly_from_roots(field, roots, lc=1):
    f = Poly.constant(field, lc)
    for r in roots:
        f = f * Poly(field, [-field.element(r), field.one])
    return f


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4),
       poly_strategy(F7, 4, min_degree=1))
def test_resultant_root_product_oracle(roots, g):
    # independent oracle: for monic split f, R(f, g) = product of g over
    # the roots of f (with multiplicity)
    if not g:
        return
    f = _poly_from_roots(F7, roots)
    expected = F7.one
    for r in roots:
        expected = expected * g(F7.element(r))
    assert resultant(f, g) == expected


@given(st.lists(st.integers(0, 6), min_size=1, max_size=3),
       poly_strategy(F7, 3, min_degree=1), st.integers(1, 6))
def test_resultant_scaling_law(roots, g, c):
    if not g:
        return
    f = _poly_from_roots(F7, roots)
    scaled = resultant(f * c, g)
    assert scaled == F7.element(c) ** g.degree * resultant(f, g)


@given(poly_strategy(F5, 3, min_degree=1), poly_strategy(F5, 3, min_degree=1))
def test_resultant_swap_sign(f, g):
    if not f or not g:
        return
    sign = -1 if (f.degree * g.degree) % 2 else 1
    assert resultant(f, g) == sign * resultant(g, f)


@given(poly_strategy(F5, 3, min_degree=1), poly_strategy(F5, 3, min_degree=1),
       poly_strategy(F5, 3, min_degree=1))
@settings(max_examples=60)
def test_resultant_multiplicative(f, g, h):
    if not f or not g or not h:
        return
    assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


# -- discriminant -------------------------------------------------------------------


def test_discriminant_examples():
    assert discriminant(Poly(F5, [1, 1, 1])) == F5.element(2)
    assert discriminant(Poly(F5, [1, -2, 1])) == F5.zero
    assert discriminant(Poly(F5, [-4, 0, 1])) == F5.element(1)
    assert discriminant(Poly(F5, [3, 1])) == F5.one
    with pytest.raises(DomainError):
        discriminant(Poly(F5, [1, 2]))  # not monic
    with pytest.raises(DomainError):
        discriminant(Poly(F5, [3]))  # constant


@pytest.mark.parametrize("field", [F5, F7])
def test_discriminant_quadratic_oracle(field):
    # classical b^2 - 4c for monic quadratics, checked exhaustively
    for b in range(field.p):
        for c in range(field.p):
            f = Poly(field, [c, b, 1])
            expected = field.element(b * b - 4 * c)
            assert discriminant(f) == expected


def test_discriminant_depressed_cubic_oracle():
    # classical -4p^3 - 27q^2 for x^3 + px + q
    for p in range(7):
        for q in range(7):
            f = Poly(F7, [q, p, 0, 1])
            assert discriminant(f) == F7.element(-4 * p ** 3 - 27 * q ** 2)


@given(poly_strategy(F5, 3, min_degree=1), poly_strategy(F5, 3, min_degree=1))
@settings(max_examples=60)
def test_discriminant_product_identity(f, g):
    if f.degree < 1 or g.degree < 1:
        return
    f, g = f.monic(), g.monic()
    if gcd(f, g).degree != 0:
        return
    r = resultant(f, g)
    assert discriminant(f * g) == discriminant(f) * discriminant(g) * r * r


def test_discriminant_zero_derivative():
    # x^5 - 2 over F_5 has zero derivative, hence repeated roots
    f = Poly(F5, [-2, 0, 0, 0, 0, 1])
    assert discriminant(f) == F5.zero


# -- squarefreeness -------------------------------------------------------------------


def test_is_squarefree():
    assert is_squarefree(Poly(F5, [-4, 0, 1]))
    assert not is_squarefree(Poly(F5, [-4, 0, 1]) ** 2)
    assert not is_squarefree(Poly(F5, [-2, 0, 0, 0, 0, 1]))  # p-th power
    assert is_squarefree(Poly(F5, [3]))
    with pytest.raises(DomainError):
        is_squarefree(Poly(F5, []))


def test_derivative():
    f = Poly(F5, [4, 1, 2, 4, 3, 1, 1])
    assert f.derivative() == Poly(F5, [1, 4, 12, 12, 5, 6])
    assert Poly(F5, [1]).derivative() == Poly(F5, [])
    # p-th powers lose their derivative
    assert Poly(F5, [1, 0, 0, 0, 0, 1]).derivative() == Poly(F5, [])


def test_monic():
    f = Poly(F5, [2, 4]) .monic()
    assert f == Poly(F5, [3, 1])
    with pytest.raises(DomainError):
        Poly(F5, []).monic()
