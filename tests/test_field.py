import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

import gfrecip.poly
from gfrecip import (DomainError, Field, FieldMismatchError, Poly, ResourceError, is_irreducible,
                     parse_field_spec)
from gfrecip.field import is_prime

# 399165290221 * 798330580441: a strong pseudoprime to every prime base
# up to 37, the least one to all twelve (Sorenson & Webster 2015)
STRONG_PSEUDOPRIME_TO_37 = 318665857834031151167461

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]


def all_fields():
    return [Field(p, e) for p, e in SMALL_FIELDS]


# -- construction -------------------------------------------------------------


def test_is_prime():
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 89 - 1)
    assert not is_prime(STRONG_PSEUDOPRIME_TO_37)
    assert STRONG_PSEUDOPRIME_TO_37 == 399165290221 * 798330580441


def test_prime_field_basics(F5):
    assert F5.p == 5 and F5.e == 1 and F5.q == 5
    assert F5.modulus == (0, 1)


def test_extension_modulus_is_lex_smallest_irreducible():
    # independent oracle: a monic quadratic over F_3 is irreducible iff it
    # has no root; enumerate all nine and take the lexicographic minimum
    irreducible = []
    for c0, c1 in itertools.product(range(3), repeat=2):
        if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            irreducible.append((c0, c1))
    assert len(irreducible) == 3
    best = min(irreducible)
    assert Field(3, 2).modulus == best + (1,)
    assert Field(3, 2).modulus == (1, 0, 1)


# default moduli: the lexicographically first irreducible, found by the
# modulus search through is_irreducible; ascending coefficients
DEFAULT_MODULI = {
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1),
    (13, 2): (1, 3, 1),
    (17, 2): (1, 1, 1),
    (101, 2): (1, 1, 1),
}


@pytest.mark.parametrize("p,e", sorted(DEFAULT_MODULI))
def test_default_modulus_golden(p, e):
    assert Field(p, e).modulus == DEFAULT_MODULI[p, e]


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
                                 (8191, 1)])
def test_index_code_is_the_canonical_order(p, e):
    # the canonical order is lexicographic on the coordinate tuple, c0 first:
    # sorting every code by its coordinates states it independently of the numbering
    fld = Field(p, e)
    numbered = [fld._index_code(i) for i in range(fld.q)]
    assert numbered == sorted(numbered, key=fld._unpack)
    # every coordinate tuple, each exactly once
    assert {fld._unpack(code) for code in numbered} == set(itertools.product(range(p), repeat=e))
    assert numbered == list(fld._codes())


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_tuples_walk_the_canonical_order(p, e):
    # _tuples(k, start) is the product of the codes, first entry most significant,
    # from tuple start on
    fld = Field(p, e)
    for k in range(4):
        every = list(itertools.product(list(fld._codes()), repeat=k))
        n = len(every)
        for start in sorted({0, 1, n // fld.q, n // 2, n - 1, n}):
            assert list(fld._tuples(k, start)) == every[start:], (k, start)


def test_large_field_modulus_search_lists_no_codes(limited_python):
    # the search walks candidates by index: no pool of p codes, which would not
    # fit in the child's 1 GiB, and F_(2^61 - 1)^40 tries 60 of them
    done = limited_python("from gfrecip import Field\n"
                          "print(Field(2147483647, 2).modulus)\n"
                          "print(Field(2 ** 61 - 1, 40).modulus[38:])")
    assert (done.returncode, done.stdout, done.stderr) == (0, "(1, 0, 1)\n(0, 59, 1)\n", "")


def test_even_characteristic_rejected():
    with pytest.raises(DomainError):
        Field(2)


@pytest.mark.parametrize("p,e", [(4, 1), (9, 1), (1, 1), (15, 2), (5, 0), (5, -1)])
def test_invalid_field_parameters(p, e):
    with pytest.raises(DomainError):
        Field(p, e)


def test_modulus_override():
    f = Field(3, 2, [2, 2, 1])  # x^2 + 2x + 2, irreducible over F_3
    assert f.modulus == (2, 2, 1)
    t = f.element([0, 1])
    assert (t * t).coords == (1, 1)  # t^2 = -2t - 2 = t + 1


def test_reducible_modulus_rejected():
    with pytest.raises(DomainError):
        Field(3, 2, [0, 1, 1])  # x^2 + x = x(x + 1)
    with pytest.raises(DomainError):
        Field(3, 2, [1, 1])  # wrong degree
    with pytest.raises(DomainError):
        Field(5, 1, [1, 1])  # prime fields use the fixed modulus x


def test_parse_field_spec():
    assert parse_field_spec("5").q == 5
    assert parse_field_spec("3^2").q == 9
    for bad in ("4", "2^3", "abc", "5^0", str(STRONG_PSEUDOPRIME_TO_37)):
        with pytest.raises(DomainError):
            parse_field_spec(bad)


# -- arithmetic ----------------------------------------------------------------


def test_spot_arithmetic(F5, F9):
    assert F5.element(3).inverse() == F5.element(2)
    assert F5.element(4) ** 3 == F5.element(4)  # 64 mod 5
    t = F9.element([0, 1])
    assert (t * t).coords == (2, 0)  # t^2 = -1 over x^2 + 1
    for f in (F5, F9):
        assert f.element(2) ** 0 == f.one and f.zero ** 0 == f.one
        assert f.one.inverse() == f.one


def test_field_axioms_exhaustive_f9(F9):
    xs = list(F9.elements())
    assert len(xs) == 9
    for a in xs:
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
            for c in xs:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
    one, zero = F9.one, F9.zero
    for a in xs:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inverse() == one


def test_int_coercion(F5):
    x = F5.element(3)
    assert x + 7 == F5.element(0)
    assert 2 * x == F5.element(1)
    assert x - 4 == F5.element(4)
    assert 1 / x == F5.element(2)
    assert F5.element(-1) == F5.element(4)


def test_mixed_field_operands_rejected(F3, F5):
    with pytest.raises(FieldMismatchError):
        F3.element(1) + F5.element(1)


def test_equal_but_distinct_fields_interoperate():
    a = Field(5).element(3)
    b = Field(5).element(4)
    assert a + b == Field(5).element(2)


def test_inverse_of_zero(F5):
    with pytest.raises(ZeroDivisionError):
        F5.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F5.element(1) / F5.zero


F49 = Field(7, 2)
F49_ELEMENTS = list(F49.elements())


@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_f49_axioms_random(i, j, k):
    a, b, c = F49_ELEMENTS[i], F49_ELEMENTS[j], F49_ELEMENTS[k]
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


def test_pow_negative_exponent(F5):
    assert F5.element(3) ** -1 == F5.element(2)
    assert F5.element(2) ** -2 == F5.element(4)  # (1/2)^2 = 3^2 = 4


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_fermat(p, e):
    f = Field(p, e)
    for a in f.units():
        assert a ** (f.q - 1) == f.one


# -- quadratic character and roots -----------------------------------------------


def test_is_square_table_f5(F5):
    squares = {x for x in range(1, 5) if F5.element(x).is_square()}
    assert squares == {1, 4}


def test_is_square_of_zero_rejected(F5):
    with pytest.raises(DomainError):
        F5.zero.is_square()


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_character_multiplicativity(p, e):
    f = Field(p, e)
    units = list(f.units())
    nonresidue = next(u for u in units if not u.is_square())
    for a in units:
        assert a.is_square() != (a * nonresidue).is_square()


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_square_census_and_roots(p, e):
    f = Field(p, e)
    squares = [a for a in f.units() if a.is_square()]
    assert len(squares) == (f.q - 1) // 2
    for a in f.elements():
        r = a.sqrt()
        if not a:
            assert r == f.zero
        elif a.is_square():
            assert r is not None and r * r == a
            # canonical choice: the lexicographically smaller of the pair
            assert r.coords <= (-r).coords
        else:
            assert r is None


def test_sqrt_spot_values(F5):
    assert F5.element(4).sqrt() == F5.element(2)
    assert F5.element(2).sqrt() is None
    assert F5.zero.sqrt() == F5.zero


def scan_roots(f):
    """Reference square roots by exhaustive scan: code of a square ->
    the first root in canonical order, the smaller-coords one."""
    roots = {}
    for r in f.elements():
        roots.setdefault((r * r).code, r)
    return roots


@pytest.mark.parametrize("p,e", [(13, 1), (101, 1), (17, 2), (3, 6)])
def test_sqrt_matches_scan_on_every_element(p, e):
    f = Field(p, e)
    roots = scan_roots(f)
    for a in f.elements():
        assert a.sqrt() == roots.get(a.code), a


def test_sqrt_matches_scan_on_seeded_sample():
    f = Field(8191)
    roots = scan_roots(f)
    rng = random.Random(8191)
    for a in (f.element(rng.randrange(f.q)) for _ in range(300)):
        assert a.sqrt() == roots.get(a.code), a


SQRT_FIELDS = [(5, 1), (7, 1), (3, 2), (5, 2), (17, 2), (3, 6), (8191, 1), (10007, 1),
               (2 ** 61 - 1, 1), (3, 20), (10007, 2)]


@given(st.sampled_from(SQRT_FIELDS), st.lists(st.integers(min_value=0), min_size=20,
                                              max_size=20))
def test_sqrt_property(spec, digits):
    # q = 1 and 3 mod 4 alike: a square's root is r or -r, the one with
    # the smaller coords; a non-square has none
    f = Field(*spec)
    r = f.element(digits[:f.e])
    a = r * r
    s = a.sqrt()
    assert s in (r, -r) and s.coords <= (-s).coords
    x = f.element(digits[-f.e:])
    if x and not x.is_square():
        assert x.sqrt() is None


@pytest.mark.parametrize("p,e", [(2 ** 61 - 1, 1), (10007, 2), (3, 20)])
def test_sqrt_large_fields(p, e):
    f = Field(p, e)
    rng = random.Random(p + e)
    r = f.element([rng.randrange(p) for _ in range(e)])
    start = time.perf_counter()
    s = (r * r).sqrt()
    assert time.perf_counter() - start < 1.0
    assert s * s == r * r and s.coords <= (-s).coords


@pytest.mark.parametrize("p,e", [(5, 2), (3, 6), (8191, 1), (10007, 2)])
def test_sqrt_stays_in_the_field_layer(monkeypatch, p, e):
    # Cipolla's power runs on pairs of codes, never on a Poly modulus:
    # e = 1 and e > 1, small and large p
    def refuse(*args):
        raise AssertionError("sqrt called pow_mod")

    monkeypatch.setattr(gfrecip.poly, "pow_mod", refuse)
    f = Field(p, e)
    rng = random.Random(p * e)
    for _ in range(20):
        r = f.element([rng.randrange(p) for _ in range(e)])
        s = (r * r).sqrt()
        assert s in (r, -r) and s.coords <= (-s).coords


def test_sqrt_over_f10007():
    # past the size an exhaustive scan could afford
    f = Field(10007)
    assert f.element(4).sqrt() == 2
    assert f.element(5).sqrt() is None  # (5/10007) = (10007/5) = (2/5) = -1


def test_first_unit_of_a_huge_field():
    # the element walk is lazy: nothing of size q is built up front
    assert next(Field(2 ** 61 - 1).units()) == 1


def test_modulus_search_f3_20():
    f = Field(3, 20)
    assert is_irreducible(Poly(Field(3), f.modulus))


@pytest.mark.parametrize("e", [400, 10 ** 12])
def test_modulus_search_capped(e):
    # refused from (p, e) alone, before q or any candidate is built
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        Field(3, e)
    assert time.perf_counter() - start < 1.0


def test_frobenius(F5, F9):
    t = F9.element([0, 1])
    assert t.frobenius(2) == t
    assert t.frobenius(4) == t
    assert F5.element(3).frobenius(1) == F5.element(3)
    assert t.frobenius(1) == t ** 3
    assert t.frobenius(1).coords == (0, 2)
    for x in F9.elements():
        for y in F9.elements():
            assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)
    with pytest.raises(DomainError):
        t.frobenius(-1)
    # over F_3^6, against k-fold cubing, past e
    f729 = Field(3, 6)
    for x in (f729.element([0, 1, 0, 0, 0, 0]), f729.element([2, 1, 0, 1, 2, 1])):
        y = x
        for k in range(8):
            assert x.frobenius(k) == y
            y = y ** 3


# -- text formats ------------------------------------------------------------------


def test_prime_field_text(F5):
    assert str(F5.element(3)) == "3"
    assert F5.parse("3") == F5.element(3)
    assert F5.parse("-1") == F5.element(4)


def test_extension_field_text(F9):
    t = F9.element([0, 1])
    assert str(F9.zero) == "0"
    assert str(F9.one) == "1"
    assert str(t) == "t"
    assert str(2 * t) == "2*t"
    assert str(1 + 2 * t) == "1+2*t"
    f25 = Field(5, 2)
    for x in list(F9.elements()) + list(f25.elements()):
        assert x.field.parse(str(x)) == x


def test_parse_errors(F9):
    for bad in ("", "t^2", "1++t", "x", "t^-1"):
        with pytest.raises(DomainError):
            F9.parse(bad)


def test_spec_strings(F5, F9):
    assert F5.spec_string() == "5"
    assert F9.spec_string() == "3^2"


def test_element_order_is_coordinate_lexicographic(F9):
    seen = [x.coords for x in F9.elements()]
    assert seen == sorted(seen)
    assert seen[0] == (0, 0)


# -- larger fields ------------------------------------------------------------------


def test_large_extension_field_paths():
    # q = 289, far larger than the fields of the tests above
    f = Field(17, 2)

    # oracle for the modulus: lexicographically first monic quadratic
    # over F_17 without a root
    expected = next((c0, c1) for c0 in range(17) for c1 in range(17)
                    if all((x * x + c1 * x + c0) % 17 for x in range(17)))
    assert f.modulus == expected + (1,)

    t = f.element([0, 1])
    m0, m1, _ = f.modulus
    assert t * t == f.element([-m0 % 17, -m1 % 17])

    rng = __import__("random").Random(5)
    sample = [f.element([rng.randrange(17), rng.randrange(17)]) for _ in range(8)]
    for a in sample:
        for b in sample:
            assert a * b == b * a
            assert (a + b) - b == a
            assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)
        if a:
            assert a * a.inverse() == f.one
            assert a ** (f.q - 1) == f.one
            r = a.sqrt()
            if a.is_square():
                assert r is not None and r * r == a
            else:
                assert r is None


@pytest.mark.parametrize("p,e,sample", [(3, 3, None), (3, 4, None), (5, 3, None), (13, 2, None),
                                        (3, 6, None), (131, 2, 500), (10007, 2, 500),
                                        (3, 20, 500)])
def test_inverse_against_fermat(p, e, sample):
    # every unit of the small fields, seeded units of the large ones; the
    # inverse runs the extended Euclid, a ** (q - 2) the powering ladder
    f = Field(p, e)
    if sample is None:
        units = list(f.units())
    else:
        rng = random.Random(p * e)
        units = [f.element([rng.randrange(p) for _ in range(e)]) for _ in range(sample)]
        units = [a for a in units if a]
    for a in units:
        assert a * a.inverse() == f.one
        assert a.inverse() == a ** (f.q - 2)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


def test_large_prime_field_paths():
    f = Field(1009)
    x = f.element(123)
    assert x * x.inverse() == f.one
    assert x ** (f.q - 1) == f.one
    r = f.element(4).sqrt()
    assert r is not None and r * r == f.element(4)


def _coordinate_reduce(field, parts):
    # reference: the t^k parts of an accumulator each mod p, then long
    # division by the field's modulus, one coordinate at a time in plain ints
    p, e = field.p, field.e
    coords = [c % p for c in parts]
    for k in range(len(coords) - 1, e - 1, -1):
        c, coords[k] = coords[k], 0
        for j, m in enumerate(field.modulus[:e]):
            coords[k - e + j] = (coords[k - e + j] - c * m) % p
    return tuple(coords[:e] + [0] * (e - len(coords)))


@pytest.mark.parametrize("p,e", [(3, 2), (3, 4), (5, 3), (17, 2), (3, 6), (10007, 2)])
def test_reduce_and_neg_against_coordinates(p, e):
    # Field._reduce on codes, on sums of products of codes and on
    # accumulators at the documented bound, 2^32 e (p - 1)^2 in every t^k
    # part, k <= 2e - 2; Field._neg on codes, one coordinate at a time
    field = Field(p, e)
    w, bound = field._slot_bits, 2 ** 32 * e * (p - 1) ** 2
    rng = random.Random(p * e + 1)

    def pack(parts):
        return sum(c << w * k for k, c in enumerate(parts))

    def unpack(v, n):
        return [v >> w * k & field._slot_mask for k in range(n)]

    codes = [field._pack([rng.randrange(p) for _ in range(e)]) for _ in range(200)]
    codes += [0, 1, field._pack([p - 1] * e)]
    accumulators = [(code, e) for code in codes]
    for terms in (1, 2, 7, 50):
        for _ in range(40):
            pairs = [(rng.choice(codes), rng.choice(codes)) for _ in range(terms)]
            accumulators.append((sum(a * b for a, b in pairs), 2 * e - 1))
    for low in (bound, bound - 1, bound - p, bound // 2):
        accumulators.append((pack([low] * (2 * e - 1)), 2 * e - 1))
        for _ in range(20):
            accumulators.append((pack([rng.choice((bound, bound - rng.randrange(p ** 2)))
                                       for _ in range(2 * e - 1)]), 2 * e - 1))
    for v, n in accumulators:
        parts = unpack(v, n)
        assert max(parts) <= bound and pack(parts) == v
        assert field._unpack(field._reduce(v)) == _coordinate_reduce(field, parts)
    for code in codes:
        assert field._unpack(field._neg(code)) == tuple(-c % p for c in field._unpack(code))
