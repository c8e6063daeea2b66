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
    VerificationError,
    discriminant,
    gcd,
    is_squarefree,
    pow_mod,
    resultant,
)
from gfrecip import poly
from gfrecip.field import _ladder, _smallest_irreducible
from gfrecip.poly import (BARRETT_MIN_WORK, GCD_PACKED_MIN, KRON_MIN_LENGTH, QUOTIENT_MIN,
                          STAGED_GAP_MAX, _barrett, _divider, _remainder, _sums)

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


def _field_id(field):
    # the spec, and after it a modulus other than the default
    spec = field.spec_string()
    if field.e > 1 and field.modulus != _smallest_irreducible(field.p, field.e):
        spec += ":" + ",".join(map(str, field.modulus))
    return spec


# F_3^10 runs the fold mod m with e = 10, 9 products a fold; F_7^2 and F_5^3
# also with a modulus of their own, t^2 + t + 3 (rows (4, 6)) and t^3 + 4t + 2
KERNEL_FIELDS = [Field(3), Field(5), Field(7), Field(13), Field(31), Field(127),
                 Field(131), Field(257), Field(65537), Field(2 ** 31 - 1),
                 Field(2 ** 89 - 1), Field(3, 2), Field(5, 3), Field(3, 6), Field(13, 2),
                 Field(127, 3), Field(131, 2), Field(10007, 2), Field(3, 10),
                 Field(7, 2, (3, 1, 1)), Field(5, 3, (2, 4, 0, 1))]


def _fold_terms(field, nbytes):
    # (top, room) for slots of nbytes bytes: the most terms they are sized
    # for, whose fold over F_{p^e} takes two residue passes, and the most
    # sized for them whose fold takes one (0 if none).  One pass fits where
    # terms g (p-1)^2 fits a sub-slot, g the largest (j+1) + sum_i (e-1-i)
    # c_ij, c_ij coordinate j of t^(e+i) mod m, derived here through _reduce
    p, e, w = field.p, field.e, field._slot_bits
    rows = [field._unpack(field._reduce(1 << w * (e + i))) for i in range(e - 1)]
    g = max(j + 1 + sum((e - 1 - i) * c[j] for i, c in enumerate(rows)) for j in range(e))
    assert field._fold_gain == g
    full = (1 << 8 * (nbytes // (2 * e - 1))) - 1
    top, room = full // (e * (p - 1) ** 2), full // (g * (p - 1) ** 2)
    assert field._kron_bytes(top) == nbytes < field._kron_bytes(top + 1)
    assert e == 1 or (top * g * (p - 1) ** 2).bit_length() > full.bit_length()
    return top, room if field._kron_bytes(room) == nbytes else 0


def _part_bounds(field, terms):
    # a sum of `terms` products of codes: at most min(k+1, 2e-1-k) products
    # of two coordinates in each of its parts at t^k
    span = 2 * field.e - 1
    return [terms * min(k + 1, span - k) * (field.p - 1) ** 2 for k in range(span)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=_field_id)
def test_kron_kernels_match_per_slot_reference(field):
    # the SWAR Barrett kernels, and over F_{p^e} their fold mod m, against
    # one slot at a time: each slot's accumulator, its t^k parts moved to
    # bit w k, through Field._reduce.  Parts of any width take the fold for
    # the most terms the slots hold, two residue passes over F_{p^e}; parts
    # within the terms bound also take folds for fewer terms, where the
    # fold skips its first pass
    p, e, w = field.p, field.e, field._slot_bits
    span = 2 * e - 1
    rng = random.Random(field.q)
    one_pass = []

    for terms in (1, 60, 70000, 2 ** 26):
        nbytes = field._kron_bytes(terms)
        top, room = _fold_terms(field, nbytes)
        one_pass.append(terms <= room)
        # where a slot holds its t^k part, and the most each part can hold
        # that the reference takes too (_reduce: 2^32 products a part)
        shift = 8 * (nbytes // span)
        caps = [min((1 << shift) - 1, 2 ** 32 * e * (p - 1) ** 2)] * span
        bound = _part_bounds(field, terms)
        for n in (1, 2, 7, 300, 2000):
            cases = [(top, [[rng.randrange(cap + 1) for cap in caps] for _ in range(n)]),
                     (top, [caps] * n),                 # every part full (0xFF bytes)
                     (top, [[p - 1] * span] * n),       # every part p - 1
                     (top, [bound] * n)]                # every part at the bound
            for size in sorted({terms, room, top} - {0}):
                # within the bound of a fold for `size` terms: random, every
                # part p - 1 and every part at the bound
                most = [min(cap, b) for cap, b in zip(caps, _part_bounds(field, size))]
                cases += [(size, [[rng.randrange(b + 1) for b in most] for _ in range(n)]),
                          (size, [[p - 1] * span] * n), (size, [most] * n)]
            for size, accs in cases:
                v = _joined(accs, nbytes, shift)
                codes = [field._reduce(sum(a << w * k for k, a in enumerate(acc)))
                         for acc in accs]
                packed = _joined([field._unpack(c) for c in codes], nbytes, shift)
                fold = field._folder(size, n)
                assert field._kron_unpack(fold(v), nbytes, n) == codes
                assert field._kron_unpack(packed, nbytes, n) == codes
                assert fold(v) == packed
                assert field._kron_pack(codes, nbytes) == packed
    # every extension field's fold takes one pass for some tested count,
    # but where g > 2^8 e: a sub-slot sized for T e (p-1)^2 has fewer than 8
    # bits to spare, so T g (p-1)^2 never fits it (F_10007^2, g = 10007)
    assert e == 1 or any(one_pass) != (field._fold_gain > 2 ** 8 * e)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=_field_id)
def test_fold_serves_shorter_values(field):
    # a fold bound for N slots reduces values of 1, N/2 + 1 and N slots as
    # the per-slot reference does, leaving every slot above them zero: gcd
    # folds every step with the fold of its first operand's slot count.
    # Full-width parts take the fold for the most terms the slots hold (two
    # passes over F_{p^e}), parts within the bound of the most terms one
    # pass serves take that fold
    span, w = 2 * field.e - 1, field._slot_bits
    nbytes = field._kron_bytes(200)
    shift = 8 * (nbytes // span)
    top, room = _fold_terms(field, nbytes)
    rng = random.Random(field.q + 5)
    cases = [(top, [(1 << shift) - 1] * span)]
    if room:
        cases.append((room, _part_bounds(field, room)))

    for big in (2, 8, 64, 1024):
        for size, most in cases:
            fold = field._folder(size, big)
            for n in (1, big // 2 + 1, big):
                # parts up to the most, none zero, so the value has n slots
                accs = [[rng.randrange(1, m + 1) for m in most] for _ in range(n)]
                codes = [field._reduce(sum(a << w * k for k, a in enumerate(acc)))
                         for acc in accs]
                assert fold(_joined(accs, nbytes, shift)) == \
                    _joined([field._unpack(c) for c in codes], nbytes, shift)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=_field_id)
def test_barrett_mu_is_the_code_list_quotient(field):
    # the mulmod of _barrett(f), whose quotient is taken with mu from the
    # packed Newton inverse, against _sums and _remainder by the code-list
    # division, on both sides of each doubling of Newton's precision, and from
    # degree 2, where mu is 1 and the Newton loop does not run.  As f
    # is a unit mod x^n when f(0) != 0, its remainder mod x^n, low half -
    # quotient * f, is right only if that quotient is the code-list one.
    # _divider's divide, in the same slots, gives that quotient and
    # remainder of the product's codes, packed, and mulmod, which repeats
    # its lines on the unreduced product, agrees
    rng = random.Random(field.q + 6)
    top = [field._pack([field.p - 1] * field.e)]
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 40, 70):
        for f in (_random_poly(field, n, rng).monic(), Poly._raw(field, top * n + [1])):
            nbytes, mulmod = _barrett(f)[:2]
            divide, twin = _divider(field, f._codes, n - 1, 2 * n)[:2]
            rand = [list(_random_poly(field, n - 1, rng)._codes) for _ in range(2)]
            for a, b in (rand, (top * n, top * n)):
                rem, quo = _sums(a, b), [0] * (n - 1)
                _remainder(field, rem, f._codes, quo)
                rem += [0] * (n - len(rem))
                va, vb = field._kron_pack(a, nbytes), field._kron_pack(b, nbytes)
                got = mulmod(va, vb)
                assert field._kron_unpack(got, nbytes, n) == rem
                dq, dr = divide(field._kron_pack([field._reduce(c) for c in _sums(a, b)], nbytes))
                assert field._kron_unpack(dq, nbytes, n - 1) == quo
                assert field._kron_unpack(dr, nbytes, n) == rem
                assert dr == got == twin(va, vb)


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


def _code_list_power(base, k, f):
    # right to left on _sums and _remainder by the codes of f itself, monic
    # or not: the remainders mod f and mod monic f are the same
    field, div = f.field, f._codes

    def mod(rem):
        _remainder(field, rem, div)
        return rem

    acc, square = mod([1]), mod(list(base._codes))
    while k:
        if k & 1:
            acc = mod(_sums(acc, square))
        square = mod(_sums(square, square))
        k >>= 1
    return Poly._raw(field, acc)


def _barrett_power(base, k, f):
    # the Barrett ladder, whatever the work: _barrett's mulmod by monic f
    field, monic = f.field, f.monic()
    nbytes, mulmod = _barrett(monic)[:2]
    acc = _ladder(field._kron_pack((base % monic)._codes, nbytes), k, mulmod)
    return Poly._raw(field, field._kron_unpack(acc, nbytes, monic.degree))


@pytest.mark.parametrize("field", [Field(3), Field(7), Field(3, 2), Field(5, 3)], ids=str)
def test_code_list_ladder_on_seeded_triples(field, monkeypatch):
    # pow_mod's code-list ladder, degrees 1 to 7 with degree times the
    # exponent's bit length below BARRETT_MIN_WORK, on non-monic moduli and
    # bases of every degree up to past the modulus's: equal to _sums and
    # _remainder powering and to the Barrett ladder; Field._inv runs once a
    # call, for monic(), and no Barrett set-up is built
    rng = random.Random(field.q + 28)
    units = [c for c in field._codes() if c not in (0, 1)]
    triples = []
    for n in range(1, KRON_MIN_LENGTH):
        bits = 40 if n == 1 else (BARRETT_MIN_WORK - 1) // n
        for _ in range(12):
            f = Poly._raw(field, [field._index_code(rng.randrange(field.q)) for _ in range(n)]
                          + [rng.choice(units)])
            base = Poly._raw(field, [field._index_code(rng.randrange(field.q))
                                     for _ in range(rng.randrange(n + 4))])
            k = rng.randrange(1, 2 ** rng.randrange(1, bits + 1))
            assert n < 2 or n * k.bit_length() < BARRETT_MIN_WORK
            triples.append((base, k, f))
    expected = [_code_list_power(base, k, f) for base, k, f in triples]
    for (base, k, f), want in zip(triples, expected):
        if f.degree >= 2:
            assert _barrett_power(base, k, f) == want, (base, k, f)
    inverses, setups = [], []
    inv = field._inv
    monkeypatch.setattr(field, "_inv", lambda code: inverses.append(code) or inv(code))
    monkeypatch.setattr(poly, "_barrett", lambda f: setups.append(f))
    for (base, k, f), want in zip(triples, expected):
        inverses.clear()
        assert pow_mod(base, k, f) == want, (base, k, f)
        assert inverses == [f._codes[-1]]
    assert setups == []


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


# prime fields from 1-byte to 12-byte residues, and extensions with e = 2 to 6
QUOTIENT_FIELDS = [Field(3), Field(7), Field(257), Field(2 ** 31 - 1), Field(2 ** 89 - 1),
                   Field(3, 2), Field(5, 3), Field(3, 6), Field(10007, 2)]


def _divided(field, a, b):
    # (quotient, remainder) codes of _divider's divide, a of degree m + k - 1
    # for b of degree m, in divmod's slots of room for k + 1 products
    k, m = len(a) - len(b) + 1, len(b) - 1
    nbytes = field._kron_bytes(k + 1)
    quo, rem = _divider(field, b, k, k + 1)[0](field._kron_pack(a, nbytes))
    return field._kron_unpack(quo, nbytes, k), field._kron_unpack(rem, nbytes, m)


@pytest.mark.parametrize("field", QUOTIENT_FIELDS, ids=str)
def test_newton_quotient_matches_the_code_list_walk(field):
    # _divider's quotient and remainder, and divmod, against _remainder, for
    # divisor and quotient lengths from 1 code to past 1000, on both sides of
    # QUOTIENT_MIN: exact and inexact divisions, monic and non-monic divisors,
    # the divisor longer than the quotient and the reverse
    rng = random.Random(field.q + 9)
    k = QUOTIENT_MIN
    reached = set()
    cases = ((1, 1), (1, 7), (3, 1), (2, 1200), (k - 1, k), (k, k - 1), (k, k), (k, k),
             (k + 1, 3 * k), (3 * k, k + 1), (k, 300), (300, k), (1001, 1001), (1100, 2))
    for i, (db, dq) in enumerate(cases):
        b = _random_poly(field, db - 1, rng)
        if i % 2:
            b = b.monic()
        q = _random_poly(field, dq - 1, rng)
        # a remainder of every length below the divisor's, none for a constant divisor
        r = _random_poly(field, rng.randrange(db - 1), rng) if db > 1 else Poly(field, [])
        for a in (q * b, q * b + r):
            rem = list(a._codes)
            quo = [0] * dq
            _remainder(field, rem, b._codes, quo)
            assert _divided(field, a._codes, b._codes) == (quo, rem + [0] * (db - 1 - len(rem)))
            assert divmod(a, b) == (Poly._raw(field, quo), Poly._raw(field, rem))
            reached.add(db >= k <= dq)
    assert reached == {False, True}


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
    # a packed step of degree gap t <= 1, or of 2 <= t <= STAGED_GAP_MAX by
    # a divisor of t + 3 codes or more (Algorithm R's stages), reads no
    # code: it works on the top slots of both operands as they are.  Any
    # other step reads the top t + 1 codes of a, then the top min(t + 1,
    # len(b)) of b, and the answer is read once, when the remainder reaches
    # zero; one that reaches a nonzero constant means gcd 1 and is not read.
    # So the reads name, in order, the reference Euclid's solved divisions
    # by divisors of 2 or more codes; random pairs, pairs with a gap-2 and a
    # gap-3 step mid-sequence, then each with a planted factor
    reads = []
    unpack = Field._kron_unpack

    def counted(self, v, nbytes, n):
        reads.append(n)
        return unpack(self, v, nbytes, n)

    monkeypatch.setattr(Field, "_kron_unpack", counted)
    rng = random.Random(field.q + 3)
    x = Poly.x(field)
    pairs = [(_random_poly(field, df, rng), _random_poly(field, dg, rng))
             for df, dg in ((120, 119), (130, 100), (60, 60))]
    for gap in (2, 3):
        # r0 mod r1 = s, then r1 mod s has degree gap `gap`
        r1 = _random_poly(field, 60, rng)
        pairs.append(((x + 1) * r1 + x ** (60 - gap) + x + 1, r1))
    staged = 0
    for f, g in pairs:
        h = _random_poly(field, 5, rng)
        for f, g in ((f, g), (f * h, g * h)):
            steps = [(size, t) for size, t in _divisions(f, g) if size >= 2]
            staged += sum(2 <= t and not _solved(size, t) for size, t in steps)
            want = [n for size, t in steps if _solved(size, t)
                    for n in (t + 1, min(t + 1, size))]
            d = _euclid(f, g)
            if d.degree > 0:
                want.append(d.degree + 1)
            reads.clear()
            assert gcd(f, g) == d
            assert reads == want
    assert staged >= 4


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_packed_kernels_fold_only_sums(field, monkeypatch):
    # slots that hold codes are read as they are: gcd folds once per packed
    # step (quotient * b - a), once more in a step of degree gap 1 (its two
    # quotient codes, sums of products of slots) and t + 1 times more in a
    # step that runs Algorithm R's stages (one a stage), down to a divisor
    # of 2 codes; a solved step folds once.  pow_mod folds three times per
    # ladder product (the high half, the quotient and the remainder), and
    # neither folds again where it reads its answer.  Every fold a
    # Field._folder hands out is counted, those f's set-up keeps included.
    folds = []
    folder = Field._folder

    def counted_folder(self, terms, n):
        fold = folder(self, terms, n)

        def counted(v):
            folds.append(n)
            return fold(v)
        return counted

    monkeypatch.setattr(Field, "_folder", counted_folder)
    rng = random.Random(field.q + 3)
    x = Poly.x(field)
    pairs = [(_random_poly(field, df, rng), _random_poly(field, dg, rng))
             for df, dg in ((120, 119), (130, 100), (60, 60))]
    for gap in (2, 3):
        r1 = _random_poly(field, 60, rng)
        pairs.append(((x + 1) * r1 + x ** (60 - gap) + x + 1, r1))
    f = _random_poly(field, KRON_MIN_LENGTH + 4, rng).monic()
    base = _random_poly(field, KRON_MIN_LENGTH + 3, rng)
    pow_mod(base, 2, f)  # builds f._setup, whose Newton inverse folds too
    for a, b in pairs:
        want = sum(1 + (t == 1) + (t >= 2 and not _solved(size, t)) * (t + 1)
                   for size, t in _divisions(a, b) if size >= 2)
        folds.clear()
        gcd(a, b)
        assert len(folds) == want
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

    def counted_folder(self, terms, n):
        shapes.append(n)
        return folder(self, terms, n)

    monkeypatch.setattr(Field, "_folder", counted_folder)
    rng = random.Random(field.q + 5)
    for df, dg in ((120, 119), (130, 100), (200, 60), (GCD_PACKED_MIN - 1,) * 2):
        f, g = _random_poly(field, df, rng), _random_poly(field, dg, rng)
        shapes.clear()
        d = gcd(f, g)
        assert shapes == [df + 1]
        assert d == _euclid(f, g)


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
@pytest.mark.parametrize("plant", ["short_p_slot", "unreduced_folds"])
def test_faulty_packed_gcd_step_raises(field, plant, request, spin_alarm):
    # a packed step whose arithmetic is wrong leaves a remainder no shorter
    # than its divisor, and gcd raises on it rather than looping for ever;
    # first steps of degree gap 0, 1 and more
    rng = random.Random(field.q + 11)
    pairs = [(_random_poly(field, df, rng), _random_poly(field, dg, rng))
             for df, dg in ((60, 60), (60, 59), (80, 40))]
    request.getfixturevalue(plant)
    for f, g in pairs:
        with pytest.raises(VerificationError, match=r"^packed gcd step left \d+ of \d+ slots$"):
            gcd(f, g)


def _solved(size, t):
    # whether a packed gcd step of degree gap t by a divisor of size codes
    # reads the top codes and solves on code lists, not runs its stages
    return t > STAGED_GAP_MAX or t >= 2 and size < t + 3


def _divisions(f, g):
    # (divisor length, degree gap) of each division of the reference Euclid
    steps = []
    while g:
        steps.append((len(g._codes), f.degree - g.degree))
        f, g = g, f % g
    return steps


@pytest.mark.parametrize("field", GCD_FIELDS, ids=str)
def test_pseudo_remainder_steps_match_euclid(field):
    # gcd's packed steps of degree gap t <= 1 are pseudo-remainder steps,
    # those of 2 <= t <= STAGED_GAP_MAX Algorithm R's stages and longer ones
    # top solves; each case, at and around GCD_PACKED_MIN, is checked
    # against _euclid and shown to reach the step it is built for
    rng = random.Random(field.q + 10)
    m = GCD_PACKED_MIN
    x = Poly.x(field)

    def unit():
        return field.element([rng.randrange(1, field.p)] * field.e)

    scale = field.element([2] * field.e)  # a unit other than 1
    for length in (m - 1, m, m + 1, m + 2):
        # t = 0 on non-monic operands of one degree
        f = _random_poly(field, length - 1, rng).monic() * scale
        g = _random_poly(field, length - 1, rng).monic() * scale
        assert not (f.is_monic or g.is_monic)
        assert gcd(f, g) == _euclid(f, g) == gcd(g, f)
        assert _divisions(f, g)[0] == (length, 0)
        # the remainder reaches zero inside the packed loop: a common factor
        # longer than GCD_PACKED_MIN
        h = _random_poly(field, length, rng)
        f, g = _coprime_pair(field, 9, 8, rng)
        assert gcd(f * h, g * h) == h.monic() == _euclid(f * h, g * h)
    # long runs of t = 1: random pairs, where t >= 2 comes about once in q steps
    f, g = _random_poly(field, 4 * m, rng), _random_poly(field, 4 * m - 1, rng)
    gaps = [t for n, t in _divisions(f, g) if n >= m]
    assert gaps.count(1) >= len(gaps) // 2
    assert gcd(f, g) == _euclid(f, g) == gcd(g, f)
    # a t = 3 step mid-sequence: r0 = (x + 1) r1 + s for a sparse s three
    # degrees below r1, so r1 mod s follows r0 mod r1 = s
    for d in (m + 2, m + 3, 2 * m):
        r1 = _random_poly(field, d, rng)
        s = x ** (d - 3) + unit() * x + 1
        r0 = (x + 1) * r1 + s
        assert _divisions(r0, r1)[:2] == [(d + 1, 1), (d - 2, 3)]
        assert gcd(r0, r1) == _euclid(r0, r1)
        h = _random_poly(field, 4, rng)
        assert gcd(r0 * h, r1 * h) == _euclid(r0 * h, r1 * h)


@pytest.mark.parametrize("field", GCD_FIELDS, ids=str)
def test_pseudo_remainder_steps_take_no_inverse(field, monkeypatch):
    # the packed loop's steps of degree gap t <= 1 and its staged steps (2
    # <= t <= STAGED_GAP_MAX by a divisor of t + 3 codes or more) call
    # neither Field._inv nor _remainder, and a gcd that enters the loop
    # stays in it down to a constant or zero remainder: _remainder runs once
    # per solved packed step, and once per division in a gcd entered below
    # GCD_PACKED_MIN, and takes one inverse a call; monic() may take one
    # more at the end
    rng = random.Random(field.q + 11)
    m = GCD_PACKED_MIN
    x = Poly.x(field)
    h = _random_poly(field, m + 3, rng)
    pairs = [(_random_poly(field, 3 * m, rng), _random_poly(field, 3 * m - 1, rng)),
             (_random_poly(field, 2 * m, rng), _random_poly(field, 2 * m, rng))]
    for gap in (2, 3):
        # a staged step mid-sequence: r0 mod r1 = s, r1 mod s of gap `gap`
        r1 = _random_poly(field, 2 * m, rng)
        pairs.append(((x + 1) * r1 + x ** (2 * m - gap) + x + 1, r1))
    pairs += [(f * h, g * h) for f, g in pairs]
    pairs.append((_random_poly(field, m - 1, rng), _random_poly(field, m - 2, rng)))
    expected = []
    for f, g in pairs:
        steps = _divisions(f, g)
        if len(g._codes) >= m:
            assert any(n >= m and t <= 1 for n, t in steps)
            expected.append(sum(n >= 2 and _solved(n, t) for n, t in steps))
        else:
            expected.append(len(steps))
    assert sum(n >= 2 and t >= 2 and not _solved(n, t)
               for f, g in pairs[:-1] for n, t in _divisions(f, g)) >= 4
    inverses, walks = [], []
    inv, walk = field._inv, poly._remainder

    def counted_inv(code):
        inverses.append(code)
        return inv(code)

    def counted_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(field, "_inv", counted_inv)
    monkeypatch.setattr(poly, "_remainder", counted_walk)
    for (f, g), want in zip(pairs, expected):
        inverses.clear()
        walks.clear()
        gcd(f, g)
        assert len(walks) == want
        assert len(inverses) - len(walks) in (0, 1)


def _linear_quotient_pair(field, n, tail, rng):
    # a pair of degrees n and n - 1 whose reference Euclid divides by a
    # linear quotient at every step, down to tail (their gcd, made monic):
    # built upward from (tail, 0) by a, b = q a + b, a
    x, a, b = Poly.x(field), tail, Poly(field, [])
    while a.degree < n:
        unit = field.element([rng.randrange(1, field.p)] * field.e)
        a, b = (unit * x + _random_poly(field, 0, rng)) * a + b, a
    return a, b


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_packed_gcd_runs_to_the_end_without_remainder(field, monkeypatch):
    # a gcd that enters the packed loop stays in it until the remainder is a
    # constant or zero: when every step has degree gap t <= 1 it makes no
    # _remainder call at all, down to gcd 1 or to a planted common factor
    rng = random.Random(field.q + 12)
    walks = []
    walk = poly._remainder

    def counted_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(poly, "_remainder", counted_walk)
    for n in (60, 120):
        for tail in (Poly.constant(field, field.element([2] * field.e)),
                     Poly.x(field) ** 3 + _random_poly(field, 2, rng)):
            f, g = _linear_quotient_pair(field, n, tail, rng)
            assert (f.degree, g.degree) == (n, n - 1)
            assert {t for _, t in _divisions(f, g)} == {1}
            d = _euclid(f, g)
            assert d == tail.monic()
            walks.clear()
            assert gcd(f, g) == d == gcd(g, f)
            assert not walks


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


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=_field_id)
def test_power_gcd_is_the_draws_gcd(field):
    # one equal-degree draw, gcd(r^k mod f - 1, f), on both ladders: node
    # degrees 2 to 7 with short and long exponents, then 8, 23 to 25, 40 and
    # 100; draws of degree past f's, r = 1 (h = 1, no split), r = -1 with
    # an odd k (h = -1, gcd 1) and a draw that vanishes on one factor
    rng = random.Random(field.q + 31)
    one = Poly.one(field)
    for n in (2, 3, 4, 5, 6, 7, 8, 23, 24, 25, 40, 100):
        f = _random_poly(field, n, rng).monic()
        for k in (1, 3, (field.q - 1) // 2, 2 ** 20 + 1):
            draws = [_random_poly(field, rng.randrange(n), rng),
                     _random_poly(field, n + 3, rng), one, -one]
            for r in draws:
                assert poly._power_gcd(r, k, f) == gcd(pow_mod(r, k, f) - one, f), (n, k, r)
        g, h = _random_poly(field, 3, rng).monic(), _random_poly(field, n, rng).monic()
        r = g * _random_poly(field, 1, rng)
        assert poly._power_gcd(r, 5, g * h) == gcd(pow_mod(r, 5, g * h) - one, g * h)
    assert poly._power_gcd(one, 7, f) == f


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_divide_folds_twice_and_mulmod_three_times(field, monkeypatch):
    # _divider's divide takes codes, so its high half needs no fold: two
    # folds (quotient and remainder), against mulmod's three on a product,
    # with the code-list walk's quotient and remainder
    rng = random.Random(field.q + 32)
    m = k = 45
    b = list(_random_poly(field, m, rng)._codes)
    a = list(_random_poly(field, m + k - 1, rng)._codes)
    nbytes = field._kron_bytes(k + 1)
    folds = []
    folder = Field._folder

    def counted_folder(self, terms, n):
        inner = folder(self, terms, n)
        return lambda v: folds.append(n) or inner(v)

    monkeypatch.setattr(Field, "_folder", counted_folder)
    divide, mulmod, _ = _divider(field, b, k, k + 1)
    folds.clear()
    quo, rem = divide(field._kron_pack(a, nbytes))
    assert len(folds) == 2
    want_rem, want_quo = list(a), [0] * k
    _remainder(field, want_rem, b, want_quo)
    assert field._kron_unpack(quo, nbytes, k) == want_quo
    assert field._kron_unpack(rem, nbytes, m) == want_rem + [0] * (m - len(want_rem))
    f = _random_poly(field, 12, rng).monic()
    mul = _barrett(f)[1]
    folds.clear()
    mul(field._kron_pack(a[:12], field._kron_bytes(24)), field._kron_pack(b[:12], field._kron_bytes(24)))
    assert len(folds) == 3


def _step_case(field, na, nb, rng):
    # a random a of na codes and b of nb, packed in gcd's slots for b, and
    # the reference a mod b
    a, b = _random_poly(field, na - 1, rng), _random_poly(field, nb - 1, rng)
    nbytes = field._kron_bytes(nb + 1)
    return a, b, nbytes, field._kron_pack(a._codes, nbytes), field._kron_pack(b._codes, nbytes)


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_packed_step_every_gap(field, monkeypatch):
    # the step gcd and the draws share, alone: degree gaps 0 to 5 by
    # divisors of 2 to 30 codes, and long gaps over short divisors (nb <=
    # t, as in the walk's gcd(x^(q^d) - x, f)), each a nonzero multiple of
    # a mod b in fewer slots than b, with a fold for na slots and for more
    # than STAGED_SLOTS_MAX.  Folds: 1 at t = 0, 2 at t = 1, t + 2 for a
    # staged step and 1 for a solved one, which alone calls _remainder
    rng = random.Random(field.q + 33)
    walks = []
    walk = poly._remainder
    monkeypatch.setattr(poly, "_remainder", lambda *args: walks.append(1) or walk(*args))
    cases = [(nb + t, nb) for t in range(6) for nb in (2, 3, 4, 5, 8, 30) if nb + t >= 2]
    cases += [(43, 3), (105, 5), (80, 40)]
    for (na, nb), slots in itertools.product(cases, (0, poly.STAGED_SLOTS_MAX + 1)):
        a, b, nbytes, va, vb = _step_case(field, na, nb, rng)
        folds = []
        inner = field._folder(nb + 1, max(na, slots))
        step = poly._stepper(field, nbytes, lambda v: folds.append(1) or inner(v), max(na, slots))
        r, t = a % b, na - nb
        walks.clear()
        v, n = step(va, na, vb, nb)
        got = Poly._raw(field, field._kron_unpack(v, nbytes, n))
        assert n == len(r._codes) < nb
        assert (got.monic() if got else got) == (r.monic() if r else r)
        staged = 2 <= t <= STAGED_GAP_MAX and nb >= t + 3 and not slots
        assert len(folds) == (1 + (t == 1) if t < 2 else t + 2 if staged else 1), (na, nb)
        assert len(walks) == (t >= 2 and not staged)


@pytest.mark.parametrize("field", [Field(3), Field(257), Field(3, 2), Field(10007, 2)], ids=str)
def test_planted_stage_faults_are_caught(field):
    # planted faults in a staged step: a sign fault (the first stage adds -c
    # to q, not c) leaves the top slot of q b + s a at -2 c b1^(t+1), so the
    # step raises VerificationError.  A first stage left unfolded is exact
    # wherever the next stage's sums stay inside their slots and no P - c
    # goes below zero, so it is planted where the slots have no room for it
    # (p - 1 > nb + 1): there it raises VerificationError or gives a
    # remainder other than a mod b's multiple.  The packed loop that runs a
    # faulty step stops either way
    rng = random.Random(field.q + 34)
    neg = field.p - 1
    for t in range(2, STAGED_GAP_MAX + 1):
        for nb in (t + 3, 30):
            na = nb + t
            a, b, nbytes, va, vb = _step_case(field, na, nb, rng)
            bits, inner = 8 * nbytes, field._folder(nb + 1, na)

            def signed(v, calls):
                v = inner(v)
                if not calls:
                    # q sits above the window and s, from slot t + 2
                    calls.append(1)
                    low = v & (1 << bits * (t + 2)) - 1
                    v = low | inner(neg * (v >> bits * (t + 2))) << bits * (t + 2)
                return v

            def unfolded(v, calls):
                if not calls:
                    calls.append(1)
                    return v
                return inner(v)

            r = a % b
            for fault in (signed, unfolded)[:1 + (neg > nb + 1)]:
                step = poly._stepper(field, nbytes, lambda v, c=[]: fault(v, c), na)
                try:
                    v, n = step(va, na, vb, nb)
                except VerificationError:
                    pass
                else:
                    assert fault is unfolded, t
                    got = Poly._raw(field, field._kron_unpack(v, nbytes, n))
                    assert (got.monic() if got else got) != r.monic(), (t, nb)
                step = poly._stepper(field, nbytes, lambda v, c=[]: fault(v, c), na)
                try:
                    poly._packed_gcd(field, nbytes, step, va, na, vb, nb)
                except VerificationError:
                    pass


@pytest.mark.parametrize("field", [Field(3), Field(3, 2)], ids=str)
def test_power_gcd_packs_every_barrett_draw(field, monkeypatch):
    # on the Barrett ladder a draw's gcd runs packed on f's set-up whatever
    # the length of h - 1, below GCD_PACKED_MIN too, as the set-up leaves no
    # entry cost; an h of one slot ends the draw with no gcd
    rng = random.Random(field.q + 35)
    packed = []
    run = poly._packed_gcd
    monkeypatch.setattr(poly, "_packed_gcd", lambda *args: packed.append(1) or run(*args))
    one = Poly.one(field)
    f = _random_poly(field, 40, rng).monic()
    for degree, want in ((0, 0), (1, 1), (5, 1), (GCD_PACKED_MIN - 2, 1), (30, 1)):
        r = _random_poly(field, degree, rng)
        g = gcd(r - one, f)
        packed.clear()
        assert poly._power_gcd(r, 1, f) == g
        assert len(packed) == want, degree
