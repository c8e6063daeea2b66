import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gfrecip import (
    DomainError,
    Field,
    FieldElement,
    FieldMismatchError,
    Poly,
    discriminant,
    gcd,
    is_squarefree,
    pow_mod,
    resultant,
)
from gfrecip.poly import (BARRETT_MIN_WORK, GCD_PACKED_MIN, KRON_MIN_LENGTH, _barrett, _remainder,
                          _sums)

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


# -- Kronecker products and the precomputed-inverse pow_mod ----------------------

# slots of 1 to 5 bytes over F_p up to F_10007 (the widest prime in the
# benchmark), up to 24 beyond it and 3 to 22 over the extensions, every
# one reduced by SWAR Barrett; residues take 1 byte (F_3 to F_131), 2
# (F_257, F_8191, F_10007^2), 3 (F_65537), 4 (F_(2^31 - 1)), 8
# (F_(2^61 - 1)) and 12 (F_(2^89 - 1))
KRON_FIELDS = [Field(3), Field(7), Field(127), Field(131), Field(257), Field(8191),
               Field(10007), Field(65537), Field(2 ** 31 - 1), Field(2 ** 61 - 1),
               Field(2 ** 89 - 1), Field(3, 2), Field(17, 2), Field(3, 6), Field(5, 3),
               Field(127, 3), Field(131, 2), Field(10007, 2)]


def _random_poly(field, degree, rng):
    # nonzero leading coefficient, so the degree is exact
    coeffs = [[rng.randrange(field.p) for _ in range(field.e)] for _ in range(degree)]
    return Poly(field, coeffs + [[rng.randrange(1, field.p)] + [0] * (field.e - 1)])


def _schoolbook(f, g):
    # reference convolution, one code product at a time
    field = f.field
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a.code * b.code
    return Poly(field, [FieldElement(field, field._reduce(v)) for v in out])


@pytest.mark.parametrize("field", KRON_FIELDS, ids=str)
def test_kronecker_products_match_schoolbook(field):
    k = KRON_MIN_LENGTH
    rng = random.Random(field.q)
    # lengths on both sides of the crossover, then long operands
    for df, dg in ((k - 2, k - 2), (k - 2, k - 1), (k - 1, k - 1), (k - 1, 40),
                   (k, k + 3), (100, 37), (200, 190), (800, 780)):
        f, g = _random_poly(field, df, rng), _random_poly(field, dg, rng)
        assert f * g == _schoolbook(f, g)
        assert g * g == _schoolbook(g, g)
    # every coordinate p - 1: the largest sum a slot can hold
    top = Poly(field, [[field.p - 1] * field.e] * 300)
    assert top * top == _schoolbook(top, top)


def _joined(accs, nbytes, shift):
    # one slot of nbytes bytes per acc, lowest first, its t^k part at bit shift * k
    return int.from_bytes(b"".join([sum(a << shift * k for k, a in enumerate(acc))
                                    .to_bytes(nbytes, "little") for acc in accs]), "little")


# F_3^10 runs the fold mod m with e = 10, 9 products a fold
KERNEL_FIELDS = [Field(3), Field(5), Field(7), Field(13), Field(31), Field(127),
                 Field(131), Field(257), Field(65537), Field(2 ** 31 - 1),
                 Field(2 ** 89 - 1), Field(3, 2), Field(5, 3), Field(3, 6), Field(13, 2),
                 Field(127, 3), Field(131, 2), Field(10007, 2), Field(3, 10)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=Field.spec_string)
def test_kron_kernels_match_per_slot_reference(field):
    # the SWAR Barrett kernels, and over F_{p^e} their fold mod m, against
    # one slot at a time: each slot's accumulator, its t^k parts moved to
    # bit w k, through Field._reduce
    p, e, w = field.p, field.e, field._slot_bits
    span = 2 * e - 1
    rng = random.Random(field.q)

    for terms in (1, 60, 70000, 2 ** 26):
        nbytes = field._kron_bytes(terms)
        # where a slot holds its t^k part, and the most each part can hold
        # that the reference takes too (_reduce: 2^32 products a part)
        shift = 8 * (nbytes // span)
        caps = [min((1 << shift) - 1, 2 ** 32 * e * (p - 1) ** 2)] * span

        # a sum of `terms` products of codes: at most min(k+1, 2e-1-k)
        # products of two coordinates in each of them at t^k
        bound = [terms * min(k + 1, span - k) * (p - 1) ** 2 for k in range(span)]
        for n in (1, 2, 7, 300, 2000):
            for accs in ([[rng.randrange(cap + 1) for cap in caps] for _ in range(n)],
                         [caps] * n,                    # every part full (0xFF bytes)
                         [[p - 1] * span] * n,          # every part p - 1
                         [bound] * n):                  # every part at the bound
                v = _joined(accs, nbytes, shift)
                codes = [field._reduce(sum(a << w * k for k, a in enumerate(acc)))
                         for acc in accs]
                packed = _joined([field._unpack(c) for c in codes], nbytes, shift)
                fold = field._folder(nbytes, n)
                assert field._kron_unpack(fold(v), nbytes, n) == codes
                assert field._kron_unpack(packed, nbytes, n) == codes
                assert fold(v) == packed
                assert field._kron_pack(codes, nbytes) == packed


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=Field.spec_string)
def test_fold_serves_shorter_values(field):
    # a fold bound for N slots reduces values of 1, N/2 + 1 and N slots as
    # the per-slot reference does, leaving every slot above them zero: gcd
    # folds every step with the fold of its first operand's slot count
    span, w = 2 * field.e - 1, field._slot_bits
    nbytes = field._kron_bytes(200)
    shift = 8 * (nbytes // span)
    rng = random.Random(field.q + 5)

    for big in (2, 8, 64, 1024):
        fold = field._folder(nbytes, big)
        for n in (1, big // 2 + 1, big):
            # full-width parts, none zero, so the value has n slots
            accs = [[rng.randrange(1, 1 << shift) for _ in range(span)] for _ in range(n)]
            codes = [field._reduce(sum(a << w * k for k, a in enumerate(acc))) for acc in accs]
            assert fold(_joined(accs, nbytes, shift)) == \
                _joined([field._unpack(c) for c in codes], nbytes, shift)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=Field.spec_string)
def test_barrett_mu_is_the_code_list_quotient(field):
    # the mulmod of _barrett(f), whose quotient is taken with mu from the
    # packed Newton inverse, against _sums and _remainder by the code-list
    # division, on both sides of each doubling of Newton's precision, and from
    # degree 2, where mu is 1 and the Newton loop does not run.  As f
    # is a unit mod x^n when f(0) != 0, its remainder mod x^n, low half -
    # quotient * f, is right only if that quotient is the code-list one.
    rng = random.Random(field.q + 6)
    top = [field._pack([field.p - 1] * field.e)]
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 40, 70):
        for f in (_random_poly(field, n, rng).monic(), Poly._raw(field, top * n + [1])):
            nbytes, mulmod = _barrett(f)
            rand = [list(_random_poly(field, n - 1, rng)._codes) for _ in range(2)]
            for a, b in (rand, (top * n, top * n)):
                rem = _sums(a, b)
                _remainder(field, rem, f._codes)
                got = mulmod(field._kron_pack(a, nbytes), field._kron_pack(b, nbytes))
                assert field._kron_unpack(got, nbytes, n) == rem + [0] * (n - len(rem))


def _pow_mod_by_products(base, k, f):
    acc = Poly.one(base.field) % f
    for _ in range(k):
        acc = acc * base % f
    return acc


@pytest.mark.parametrize("field", KRON_FIELDS, ids=str)
def test_pow_mod_against_repeated_products(field):
    rng = random.Random(field.q + 1)
    top = [[field.p - 1] * field.e]
    # degree 2 is Cipolla's modulus, degrees up to 6 Ben-Or's on small a-srm
    for n in (2, 4, KRON_MIN_LENGTH - 1, KRON_MIN_LENGTH, KRON_MIN_LENGTH + 1, 45):
        # random, then every coordinate p - 1 (the largest slot sums)
        for f, base in ((_random_poly(field, n, rng), _random_poly(field, n - 1, rng)),
                        (Poly(field, top * n + [1]), Poly(field, top * n))):
            for k in (0, 1, 2, 3, 5, 8, 13):
                assert pow_mod(base, k, f) == _pow_mod_by_products(base, k, f)


def _square_and_multiply(base, k, f):
    # right to left on Poly * and %, so neither of pow_mod's ladders nor
    # field.py's _ladder is involved
    acc, square = Poly.one(base.field) % f, base % f
    while k:
        if k & 1:
            acc = acc * square % f
        square = square * square % f
        k >>= 1
    return acc


@pytest.mark.parametrize("field", KRON_FIELDS, ids=str)
def test_pow_mod_below_kron_min_length_on_both_ladders(field):
    # degrees 2 to 7 by short exponents (code-list ladder) and by the long
    # ones of equal-degree draws, (q^d - 1)/2, and q^20 + 1 (Barrett ladder)
    rng = random.Random(field.q + 2)
    q = field.q
    exponents = [3, 13] + [(q ** d - 1) // 2 for d in range(1, 7)] + [q ** 20 + 1]
    ladders = set()
    for n in range(2, KRON_MIN_LENGTH):
        f, base = _random_poly(field, n, rng), _random_poly(field, n - 1, rng)
        for k in exponents:
            ladders.add(n * k.bit_length() >= BARRETT_MIN_WORK)
            assert pow_mod(base, k, f) == _square_and_multiply(base, k, f), (n, k)
    assert ladders == {False, True}


@pytest.mark.parametrize("p, e", [(17, 1), (19, 1), (17, 2)])
def test_pow_mod_frobenius_on_artin_schreier(p, e):
    # x^p - x - 1 is irreducible of degree p over F_q when the trace of 1
    # (that is e) is nonzero mod p, and x^(p^j) = x + j mod it; so
    # x^q = x + e and x^(q^p) = x
    field = Field(p, e)
    f = Poly(field, [-1, -1] + [0] * (p - 2) + [1])
    x = Poly.x(field)
    assert f.degree >= KRON_MIN_LENGTH
    assert pow_mod(x, field.q, f) == x + e
    assert pow_mod(x, field.q ** p, f) == x
    assert pow_mod(x, field.q ** (p - 1), f) != x


def test_pow_mod_edge_cases():
    field = Field(7)
    rng = random.Random(77)
    f = _random_poly(field, KRON_MIN_LENGTH + 4, rng).monic()
    base = _random_poly(field, KRON_MIN_LENGTH + 1, rng)
    # a non-monic modulus leaves every remainder unchanged
    assert pow_mod(base, 11, f * 3) == pow_mod(base, 11, f) \
        == _pow_mod_by_products(base, 11, f)
    assert pow_mod(base, 0, f) == Poly.one(field)
    # a base of degree >= deg f is reduced first
    big = _random_poly(field, 3 * f.degree + 2, rng)
    assert pow_mod(big, 6, f) == _pow_mod_by_products(big % f, 6, f)
    assert pow_mod(f, 5, f) == Poly(field, [])
    # degree 1: the remainder is the value at the root, x - 3 -> base(3)^k
    linear = Poly(field, [-3, 1])
    assert pow_mod(big, 9, linear) == Poly.constant(field, big(3) ** 9)
    assert pow_mod(big, 9, linear * 5) == Poly.constant(field, big(3) ** 9)
    # however long the exponent, degree 1 keeps the code-list ladder: the
    # Barrett quotient would shift by n - 2 = -1 slots
    assert pow_mod(big, 7 ** 40, linear) == Poly.constant(field, big(3) ** 7 ** 40)
    b9, root = _random_poly(F9, 5, rng), F9.element(-1)
    assert pow_mod(b9, 9 ** 20, Poly(F9, [1, 1])) == Poly.constant(F9, b9(root) ** 9 ** 20)


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
    # short and long bases: the powers from KRON_MIN_LENGTH on are Kronecker products
    big = _random_poly(F9, KRON_MIN_LENGTH, random.Random(12))
    for base in (f, Poly(F9, [[1, 2], 0, [0, 1]]), big):
        for k in (1, 2, 8, 13):
            acc = base
            for _ in range(k - 1):
                acc = acc * base
            assert base ** k == acc
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


# prime fields, and extensions with e = 2 to 6, from 1-byte residues (F_3^4,
# F_5^3) to 2-byte ones (F_10007^2)
GCD_FIELDS = [Field(3), Field(7), Field(257), Field(8191), Field(3, 2), Field(17, 2),
              Field(3, 4), Field(5, 3), Field(3, 6), Field(10007, 2)]


def _euclid(f, g):
    # reference monic gcd: the plain remainder sequence by divmod, each
    # division checked by multiplying back
    while g:
        q, r = divmod(f, g)
        assert q * g + r == f and r.degree < g.degree
        f, g = g, r
    return f.monic() if f else f


def _coprime_pair(field, df, dg, rng):
    while True:
        f, g = _random_poly(field, df, rng), _random_poly(field, dg, rng)
        if _euclid(f, g) == Poly.one(field):
            return f, g


@pytest.mark.parametrize("field", GCD_FIELDS, ids=str)
def test_gcd_against_reference_euclid(field):
    rng = random.Random(field.q + 2)
    k = KRON_MIN_LENGTH
    # random non-monic pairs on both sides of K, f scaled by a random unit
    for df, dg in ((0, 0), (1, 0), (5, 3), (3, 5), (k - 1, k - 2), (k, k),
                   (k + 1, k - 1), (60, 59), (150, 40), (400, 399)):
        f, g = _random_poly(field, df, rng), _random_poly(field, dg, rng)
        scale = field.element([rng.randrange(1, field.p)] * field.e)
        f = f * scale
        assert gcd(f, g) == _euclid(f, g) == gcd(g, f)
    # planted common factors: gcd(f h, g h) = monic(h) when gcd(f, g) = 1
    for dh, df, dg in ((1, 2, 1), (4, 3, 3), (k - 2, 3, 5), (k, k, k + 2),
                       (100, 60, 45), (200, 200, 190)):
        h = _random_poly(field, dh, rng)
        f, g = _coprime_pair(field, df, dg, rng)
        assert gcd(f * h, g * h) == h.monic() == _euclid(f * h, g * h)
        assert gcd(f * h * h, g * h) == _euclid(f * h * h, g * h)
    # the shorter operand one coefficient short of the packed remainder
    # sequence, at its first length and one past it, degree gaps 0, 1 and 3;
    # random pairs, then pairs with a planted degree-5 common factor
    m = GCD_PACKED_MIN
    for length in (m - 1, m, m + 1):
        for gap in (0, 1, 3):
            dg = length - 1
            f, g = _random_poly(field, dg + gap, rng), _random_poly(field, dg, rng)
            assert gcd(f, g) == _euclid(f, g) == gcd(g, f)
            h = _random_poly(field, 5, rng)
            f, g = _coprime_pair(field, dg + gap - 5, dg - 5, rng)
            assert gcd(f * h, g * h) == h.monic() == _euclid(f * h, g * h)
    # zero, equal and constant arguments
    zero, one = Poly(field, []), Poly.one(field)
    f = _random_poly(field, 2 * k, rng).monic() * field.element([2] * field.e)
    c = Poly.constant(field, field.element([field.p - 1] * field.e))
    assert not f.is_monic
    assert gcd(f, zero) == gcd(zero, f) == gcd(f, f) == gcd(f, f * c) == f.monic()
    assert gcd(c, zero) == gcd(zero, c) == gcd(c, f) == gcd(f, c) == gcd(c, c) == one
    assert gcd(zero, zero) == zero


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(3, 6)], ids=str)
def test_sparse_divisors(field):
    # divisors of mostly zero codes, such as the walk's x^(q^d) - x, from
    # three codes up to both sides of KRON_MIN_LENGTH and GCD_PACKED_MIN;
    # every division is checked by multiplying back, every gcd by a planted
    # common factor
    rng = random.Random(field.q + 8)
    x, one = Poly.x(field), Poly.one(field)
    for k in (2, 3, 7, 8, 47, 48, 200):
        c = field.element([rng.randrange(1, field.p)] * field.e)
        for g in (x ** k, x ** k - x, x ** k + c * x ** rng.randrange(k)):
            for df in (k - 1, k, k + 5, 3 * k):
                f = _random_poly(field, df, rng)
                q, r = divmod(f, g)
                assert q * g + r == f and r.degree < k
            u, h = _random_poly(field, 2 * k, rng), _random_poly(field, 5, rng)
            assert gcd(g * u, g) == gcd(g, g * u) == g.monic()
            assert gcd(g * u + 1, g) == gcd(g, g * u + 1) == one
            assert gcd(g * h, (g + 1) * h) == h.monic()
            assert gcd(g * u * h, (g * u + 1) * h) == h.monic()


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_packed_gcd_steps_match_euclid(field, monkeypatch):
    # a wrong quotient still leaves a remainder with the same gcd, only a
    # longer sequence: the packed steps, each reading the top codes of both
    # operands once, must be the reference Euclid's divisions by divisors
    # of GCD_PACKED_MIN or more coefficients; then both operands are read
    # once more, as code lists
    reads = []
    unpack = Field._kron_unpack

    def counted(self, v, nbytes, n):
        reads.append(n)
        return unpack(self, v, nbytes, n)

    monkeypatch.setattr(Field, "_kron_unpack", counted)
    rng = random.Random(field.q + 3)
    for df, dg in ((120, 119), (130, 100), (60, 60)):
        f, g = _random_poly(field, df, rng), _random_poly(field, dg, rng)
        reads.clear()
        gcd(f, g)
        count = len(reads)
        steps = 0
        while g.degree + 1 >= GCD_PACKED_MIN:
            f, g = g, f % g
            steps += 1
        assert count == 2 * steps + 2


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_packed_kernels_fold_only_sums(field, monkeypatch):
    # slots that hold codes are read as they are: gcd folds once per packed
    # step (quotient * b - a), pow_mod three times per ladder product (the
    # high half, the quotient and the remainder), and neither folds again
    # where it reads its answer.  Every fold a Field._folder hands out is
    # counted, those f's set-up keeps included.
    folds = []
    folder = Field._folder

    def counted_folder(self, nbytes, n):
        fold = folder(self, nbytes, n)

        def counted(v):
            folds.append(n)
            return fold(v)
        return counted

    monkeypatch.setattr(Field, "_folder", counted_folder)
    rng = random.Random(field.q + 3)
    pairs = [(_random_poly(field, df, rng), _random_poly(field, dg, rng))
             for df, dg in ((120, 119), (130, 100), (60, 60))]
    f = _random_poly(field, KRON_MIN_LENGTH + 4, rng).monic()
    base = _random_poly(field, KRON_MIN_LENGTH + 3, rng)
    pow_mod(base, 2, f)  # builds f._setup, whose Newton inverse folds too
    for a, b in pairs:
        folds.clear()
        gcd(a, b)
        count = len(folds)
        steps = 0
        while b.degree + 1 >= GCD_PACKED_MIN:
            a, b = b, a % b
            steps += 1
        assert count == steps
    for k in (1, 2, 3, 13, field.q):
        folds.clear()
        pow_mod(base, k, f)
        products = k.bit_length() - 1 + bin(k).count("1") - 1
        assert len(folds) == 3 * products


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_packed_gcd_binds_one_fold(field, monkeypatch):
    # no value of a packed remainder sequence has more slots than its first
    # operand, so one fold of that many slots serves every step
    shapes = []
    folder = Field._folder

    def counted_folder(self, nbytes, n):
        shapes.append(n)
        return folder(self, nbytes, n)

    monkeypatch.setattr(Field, "_folder", counted_folder)
    rng = random.Random(field.q + 5)
    for df, dg in ((120, 119), (130, 100), (200, 60), (GCD_PACKED_MIN - 1,) * 2):
        f, g = _random_poly(field, df, rng), _random_poly(field, dg, rng)
        shapes.clear()
        d = gcd(f, g)
        assert shapes == [df + 1]
        assert d == _euclid(f, g)


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_kron_unpack_reads_packed_codes(field):
    # n slots that hold codes, read one slot at a time (few slots) or in
    # bulk (many): both sides of the crossover
    rng = random.Random(field.q + 4)
    nbytes = field._kron_bytes(200)
    for n in (1, 7, 8, 9, 11, 12, 13, 15, 16, 17, 40, 2000):
        for codes in ([field._pack([rng.randrange(field.p) for _ in range(field.e)])
                       for _ in range(n)],
                      [field._pack([field.p - 1] * field.e)] * n):
            assert field._kron_unpack(field._kron_pack(codes, nbytes), nbytes, n) == codes


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
    assert not is_squarefree(Poly(Field(3), [1, 0, 1]) ** 9)  # p^2-th power
    assert not is_squarefree(Poly(F9, [[0, 1], 1]) ** 3)  # p-th power over F_9
    assert is_squarefree(Poly(F9, [[0, 1], 1]))
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
