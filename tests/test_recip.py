import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gfrecip import (
    DomainError,
    Field,
    Parity,
    Poly,
    SrmVerdict,
    VerificationError,
    a_reciprocal,
    classify,
    dickson,
    discriminant_identity_check,
    enumerate_srm,
    eval_at_sqrt_pair,
    factor_count,
    inverse_quadratic_transform,
    is_a_self_reciprocal,
    is_irreducible,
    parity_indicator,
    quadratic_transform,
    strip_linear_sqrt,
    strip_x2_minus_a,
)

F3 = Field(3)
F5 = Field(5)
F9 = Field(3, 2)

# a nontrivial 4-srm sextic that vanishes at sqrt(4) = 2 but is not
# divisible by x^2 - 4; exercises every degenerate-direction branch
SEXTIC = Poly.from_string(F5, "4,1,2,4,3,1,1")  # x^6+x^5+3x^4+4x^3+2x^2+x+4


def monic_with_unit_constant(field, max_degree):
    pool = list(field.elements())
    for d in range(1, max_degree + 1):
        for lower in itertools.product(pool, repeat=d):
            if lower[0]:
                yield Poly(field, lower + (field.one,))


# -- the operator ------------------------------------------------------------------


def test_a_reciprocal_examples():
    f = Poly(F5, [1, 0, 1])
    assert a_reciprocal(f, 2) == Poly(F5, [4, 0, 1])
    assert a_reciprocal(f, 3) == Poly(F5, [4, 0, 1])
    assert a_reciprocal(f, 2) == a_reciprocal(f, 3)
    palindrome = Poly(F3, [1, 2, 2, 1])
    assert a_reciprocal(palindrome, 1) == palindrome
    assert a_reciprocal(Poly(F5, [3, 1]), 4) == Poly(F5, [3, 1])


def test_a_reciprocal_preconditions():
    with pytest.raises(DomainError):
        a_reciprocal(Poly(F5, [1, 2]), 1)  # not monic
    with pytest.raises(DomainError):
        a_reciprocal(Poly(F5, [0, 1, 1]), 1)  # zero constant term
    with pytest.raises(DomainError):
        a_reciprocal(Poly(F5, [1, 1]), 0)  # a = 0


def test_involution_exhaustive():
    for a in F5.units():
        for f in monic_with_unit_constant(F5, 3):
            assert a_reciprocal(a_reciprocal(f, a), a) == f


def test_product_rule_exhaustive_f3():
    for a in F3.units():
        polys = list(monic_with_unit_constant(F3, 2))
        for f in polys:
            rf = a_reciprocal(f, a)
            for g in polys:
                assert a_reciprocal(f * g, a) == rf * a_reciprocal(g, a)


@given(st.integers(1, 8), st.lists(st.integers(0, 8), min_size=1, max_size=4))
@settings(max_examples=80)
def test_product_rule_random_f9(ai, ints):
    pool = list(F9.elements())
    a = pool[ai]
    f = Poly(F9, [pool[i] for i in ints] + [F9.one])
    if not f[0]:
        return
    g = Poly(F9, [pool[i] for i in reversed(ints)] + [F9.one])
    if not g[0]:
        return
    assert a_reciprocal(f * g, a) == a_reciprocal(f, a) * a_reciprocal(g, a)


def test_root_correspondence():
    # for split monic f with nonzero roots, the a-reciprocal is exactly
    # the monic polynomial with roots a/alpha
    for roots in itertools.product((1, 2, 3, 4), repeat=3):
        f = Poly.one(F5)
        for r in roots:
            f = f * Poly(F5, [-r, 1])
        for a in F5.units():
            expected = Poly.one(F5)
            for r in roots:
                expected = expected * Poly(F5, [-(a / F5.element(r)), F5.one])
            assert a_reciprocal(f, a) == expected


# -- detection and classification ------------------------------------------------------


def test_is_a_self_reciprocal_examples():
    assert is_a_self_reciprocal(SEXTIC, F5.element(4))
    for field in (F3, F5, F9):
        for a in field.units():
            assert is_a_self_reciprocal(Poly(field, [-a, field.zero, field.one]), a)
    assert not is_a_self_reciprocal(Poly(F5, [3, 1, 1]), F5.element(4))


def test_detection_matches_operator_fixed_points():
    for a in F5.units():
        for f in monic_with_unit_constant(F5, 4):
            assert is_a_self_reciprocal(f, a) == (a_reciprocal(f, a) == f)


def test_classify_examples():
    a = F5.element(4)
    assert classify(Poly(F5, [-4, 0, 1]), a).verdict is SrmVerdict.TRIVIAL
    assert classify(Poly(F5, [-4, 0, 1]) ** 2, a).verdict is SrmVerdict.NONTRIVIAL
    assert classify(Poly(F5, [-4, 0, 1]) ** 2, a).half_degree == 2
    assert classify(Poly(F5, [3, 1]), a).verdict is SrmVerdict.ODD_MINUS
    assert classify(Poly(F5, [2, 1]), a).verdict is SrmVerdict.ODD_PLUS
    assert classify(SEXTIC, a).verdict is SrmVerdict.NONTRIVIAL
    assert classify(SEXTIC, a).half_degree == 3
    assert classify(Poly(F5, [3, 1, 1]), a).verdict is SrmVerdict.NOT_SELF_RECIPROCAL


def test_classify_odd_degree_needs_square_parameter():
    # no odd-degree fixed point can exist for a non-square a
    for a_int in (2, 3):
        a = F5.element(a_int)
        for f in monic_with_unit_constant(F5, 3):
            if f.degree % 2 == 1:
                assert classify(f, a).verdict is SrmVerdict.NOT_SELF_RECIPROCAL


def test_trivial_kind_has_zero_middle_coefficient():
    for field, a_int in ((F5, 4), (F5, 2), (F9, [0, 1])):
        a = field.element(a_int)
        for n in (1, 2):
            for f in enumerate_srm(field, a, n, "trivial"):
                assert f[n] == field.zero


def test_multiplication_table():
    # trivial*trivial = nontrivial, trivial*nontrivial = trivial,
    # nontrivial*nontrivial = nontrivial
    expected = {
        (SrmVerdict.TRIVIAL, SrmVerdict.TRIVIAL): SrmVerdict.NONTRIVIAL,
        (SrmVerdict.TRIVIAL, SrmVerdict.NONTRIVIAL): SrmVerdict.TRIVIAL,
        (SrmVerdict.NONTRIVIAL, SrmVerdict.TRIVIAL): SrmVerdict.TRIVIAL,
        (SrmVerdict.NONTRIVIAL, SrmVerdict.NONTRIVIAL): SrmVerdict.NONTRIVIAL,
    }
    for field in (F3, F5):
        for a in field.units():
            group = {}
            for kind in ("trivial", "nontrivial"):
                group[kind] = list(enumerate_srm(field, a, 1, kind))
            for f in group["trivial"] + group["nontrivial"]:
                kf = classify(f, a).verdict
                for g in group["trivial"] + group["nontrivial"]:
                    kg = classify(g, a).verdict
                    assert classify(f * g, a).verdict is expected[kf, kg]


# -- structural stripping ------------------------------------------------------------


def test_strip_x2_minus_a_examples():
    a = F5.element(4)
    quad = Poly(F5, [-4, 0, 1])
    assert strip_x2_minus_a(quad, a) == (1, Poly.one(F5))
    assert strip_x2_minus_a(quad ** 2, a) == (2, Poly.one(F5))
    assert strip_x2_minus_a(SEXTIC, a) == (0, SEXTIC)
    with pytest.raises(DomainError):
        strip_x2_minus_a(Poly(F5, [3, 1]), a)  # odd degree
    with pytest.raises(DomainError):
        strip_x2_minus_a(Poly(F5, [3, 1, 1]), a)  # not self-reciprocal


def test_strip_x2_minus_a_parity_sweep():
    for field in (F3, F5):
        for a in field.units():
            quad = Poly(field, [-a, field.zero, field.one])
            for kind in ("trivial", "nontrivial"):
                for f in enumerate_srm(field, a, 2, kind):
                    k, g = strip_x2_minus_a(f, a)
                    assert quad ** k * g == f
                    assert (k % 2 == 1) == (kind == "trivial")
                    if g.degree > 0:
                        assert g % quad


def test_strip_linear_sqrt_known_values():
    a = F5.element(4)
    k, g = strip_linear_sqrt(SEXTIC, a, 1)
    assert k == 2
    assert g == Poly.from_string(F5, "1,0,4,0,1")
    assert g(2) == F5.element(3)

    second = Poly.from_string(F5, "4,0,2,3,3,0,1")  # x^6+3x^4+3x^3+2x^2+4
    assert second(3) == F5.zero
    k, g = strip_linear_sqrt(second, a, -1)
    assert k == 2
    assert g == Poly.from_string(F5, "1,4,0,1,1")
    assert g(3) == F5.one


def test_strip_linear_sqrt_no_root_is_identity():
    a = F5.element(4)
    f = Poly(F5, [4, 2, 1])  # nontrivial 4-srm, f(2) = 2 != 0
    assert classify(f, a).verdict is SrmVerdict.NONTRIVIAL
    assert strip_linear_sqrt(f, a, 1) == (0, f)


def test_strip_linear_sqrt_preconditions():
    with pytest.raises(DomainError):
        strip_linear_sqrt(Poly(F5, [2, 0, 1]), F5.element(2), 1)  # non-square a
    with pytest.raises(DomainError):
        strip_linear_sqrt(Poly(F5, [-4, 0, 1]) ** 2, F5.element(4), 1)  # divisible
    with pytest.raises(DomainError):
        strip_linear_sqrt(SEXTIC, F5.element(4), 2)  # bad sign


# -- Dickson polynomials and the quadratic transform -----------------------------------


def test_dickson_small_cases():
    for field in (F5, F9):
        for a in field.units():
            assert dickson(0, a) == Poly.constant(field, 2)
            assert dickson(1, a) == Poly.x(field)
            assert dickson(2, a) == Poly(field, [-2 * a, field.zero, field.one])
    assert dickson(3, F5.element(1)) == Poly(F5, [0, 2, 0, 1])
    with pytest.raises(DomainError):
        dickson(-1, F5.element(1))
    with pytest.raises(DomainError):
        dickson(2, F5.zero)
    # an int has no field to build D_k over
    for k in (0, 3):
        with pytest.raises(DomainError, match="nonzero field element"):
            dickson(k, 2)


def _substitute_x_plus_a_over_x(f, a):
    # x^deg(f) * f(x + a/x), expanded exactly: sum b_i x^(n-i) (x^2+a)^i
    field = f.field
    n = f.degree
    base = Poly(field, [a, field.zero, field.one])
    out = Poly(field, [])
    power = Poly.one(field)
    for i in range(n + 1):
        term = power * f[i]
        out = out + Poly(field, (field.zero,) * (n - i) + term.coeffs)
        power = power * base
    return out


@pytest.mark.parametrize("field,a_spec", [(F5, 1), (F5, 2), (F9, [0, 1])])
def test_dickson_functional_identity(field, a_spec):
    # x^k D_k(x + a/x) == x^2k + a^k as polynomials
    a = field.element(a_spec)
    for k in range(13):
        lhs = _substitute_x_plus_a_over_x(dickson(k, a), a)
        expected = {0: a ** k if k else field.element(2)}
        rhs = Poly(field, [a ** k] + [field.zero] * (2 * k - 1) + [field.one]) \
            if k else Poly.constant(field, 2)
        assert lhs == rhs


def test_quadratic_transform_examples():
    assert quadratic_transform(Poly(F5, [1, 1]), F5.element(2)) == Poly(F5, [2, 1, 1])
    assert quadratic_transform(Poly(F5, [1, 1, 1]), F5.element(1)) == \
        Poly(F5, [1, 1, 3, 1, 1])
    for field in (F3, F5, F9):
        for a in field.units():
            assert quadratic_transform(Poly.x(field), a) == \
                Poly(field, [a, field.zero, field.one])


def test_quadratic_transform_output_is_nontrivial_srm():
    for a in F5.units():
        for f in monic_with_unit_constant(F5, 2):
            out = quadratic_transform(f, a)
            assert out.degree == 2 * f.degree
            assert classify(out, a).verdict is SrmVerdict.NONTRIVIAL


def test_quadratic_transform_can_square_a_linear_factor():
    # f itself is nonzero at +-sqrt(a), yet the transform vanishes there
    # doubly: the reciprocal-pair dichotomy needs the transform-side
    # nonvanishing hypothesis, not the input-side one
    f = Poly(F5, [1, 1])
    a = F5.element(4)
    assert f(2) and f(-2)
    t = quadratic_transform(f, a)
    assert t == Poly(F5, [3, 1]) ** 2
    assert eval_at_sqrt_pair(t, a).value == F5.zero


def test_quadratic_transform_preconditions():
    with pytest.raises(DomainError):
        quadratic_transform(Poly(F5, [1, 2]), F5.element(1))
    with pytest.raises(DomainError):
        quadratic_transform(Poly(F5, [3]), F5.element(1))
    with pytest.raises(DomainError):
        quadratic_transform(Poly(F5, [1, 1]), F5.element(0))


def test_inverse_quadratic_transform():
    for field in (F3, F5, F9):
        for a in field.units():
            base = Poly(field, [a, field.zero, field.one])
            assert inverse_quadratic_transform(base, a) == Poly.x(field)
    g = inverse_quadratic_transform(SEXTIC, F5.element(4))
    assert g == Poly.from_string(F5, "1,1,1,1")
    with pytest.raises(DomainError):
        inverse_quadratic_transform(Poly(F5, [-4, 0, 1]), F5.element(4))  # trivial


def test_transform_round_trips():
    for a in F5.units():
        for h in monic_with_unit_constant(F5, 2):
            assert inverse_quadratic_transform(quadratic_transform(h, a), a) == h
        for n in (1, 2):
            for f in enumerate_srm(F5, a, n, "nontrivial"):
                assert quadratic_transform(inverse_quadratic_transform(f, a), a) == f


@given(st.lists(st.integers(0, 8), min_size=3, max_size=3), st.integers(1, 8))
@settings(max_examples=50)
def test_transform_round_trip_random_f9(ints, ai):
    pool = list(F9.elements())
    h = Poly(F9, [pool[i] for i in ints] + [F9.one])
    a = pool[ai]
    assert inverse_quadratic_transform(quadratic_transform(h, a), a) == h


# -- evaluation at the square-root pair --------------------------------------------------


def test_eval_at_sqrt_pair_examples():
    value, even, odd = eval_at_sqrt_pair(SEXTIC, F5.element(4))
    assert value == F5.zero
    for field in (F3, F5, F9):
        for a in field.units():
            v = eval_at_sqrt_pair(Poly(field, [-a, field.zero, field.one]), a)
            assert (v.value, v.even_part, v.odd_part) == (field.zero, field.zero, field.zero)
    v = eval_at_sqrt_pair(Poly(F5, [1, 0, 1]), F5.element(2))
    assert (v.value, v.even_part, v.odd_part) == (F5.element(4), F5.element(3), F5.zero)


def _embedding(small, big):
    """Map small = F_p[t]/(m) into big by sending t to a root of m."""
    m = Poly(big, [int(c) for c in small.modulus])
    root = next(x for x in big.elements() if not m(x))

    def embed(x):
        acc = big.zero
        for c in reversed(x.coords):
            acc = acc * root + big.element(int(c))
        return acc

    return embed


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_eval_at_sqrt_pair_against_extension_field(p, e):
    # direct oracle: adjoin sqrt(a) in F_{q^2} and literally evaluate
    # f(sqrt(a)) * f(-sqrt(a)) there
    small = Field(p, e)
    big = Field(p, 2 * e)
    embed = _embedding(small, big)
    pool = list(small.elements())
    degrees = range(1, 5 if small.q <= 5 else 3)
    for a in small.units():
        big_a = embed(a)
        root = next(x for x in big.elements() if x * x == big_a)
        for d in degrees:
            for lower in itertools.product(pool, repeat=d):
                f = Poly(small, lower + (small.one,))
                expected_big = Poly(big, [embed(c) for c in f.coeffs])
                direct = expected_big(root) * expected_big(-root)
                assert embed(eval_at_sqrt_pair(f, a).value) == direct


def test_eval_at_sqrt_pair_square_case_direct():
    for a_int in (1, 4):
        a = F5.element(a_int)
        s = a.sqrt()
        for lower in itertools.product(range(5), repeat=4):
            f = Poly(F5, lower + (1,))
            assert eval_at_sqrt_pair(f, a).value == f(s) * f(-s)


# -- parity criterion --------------------------------------------------------------------


def test_parity_indicator_examples():
    odd_case = parity_indicator(Poly(F5, [1, 1, 1]), F5.element(1))
    assert odd_case.verdict is Parity.ODD
    assert odd_case.indicator == F5.element(2)
    assert factor_count(Poly(F5, [1, 1, 1]), True) == 1

    even_case = parity_indicator(Poly(F5, [1, 0, 1]), F5.element(1))
    assert even_case.verdict is Parity.EVEN
    assert even_case.indicator == F5.element(1)
    assert factor_count(Poly(F5, [1, 0, 1]), True) == 2

    # the indicator vanishes when f has a root at +-sqrt(a): here
    # x^2+3x+1 = (x-1)^2 over F_5, so the criterion does not apply
    degenerate = parity_indicator(Poly(F5, [1, 3, 1]), F5.element(1))
    assert degenerate.verdict is Parity.NOT_APPLICABLE
    assert not degenerate.indicator
    assert degenerate.reason

    root_case = parity_indicator(SEXTIC, F5.element(4))
    assert root_case.verdict is Parity.NOT_APPLICABLE


def test_parity_indicator_preconditions():
    with pytest.raises(DomainError):
        parity_indicator(Poly(F5, [-4, 0, 1]), F5.element(4))  # trivial
    with pytest.raises(DomainError):
        parity_indicator(Poly(F5, [3, 1, 1]), F5.element(4))  # not srm


def test_parity_matches_oracle_small_sweep():
    for field in (F3, F5):
        for a in field.units():
            for n in (1, 2):
                for f in enumerate_srm(field, a, n, "nontrivial"):
                    verdict = parity_indicator(f, a)
                    if verdict.verdict is Parity.NOT_APPLICABLE:
                        continue
                    r = factor_count(f, with_multiplicity=True)
                    expected = Parity.EVEN if r % 2 == 0 else Parity.ODD
                    assert verdict.verdict is expected, f.to_string()


# -- discriminant identity ---------------------------------------------------------------


def test_discriminant_identity_examples():
    for field in (F3, F5, F9):
        for a in field.units():
            assert discriminant_identity_check(
                Poly(field, [a, field.zero, field.one]), a)
    a = F5.element(4)
    assert discriminant_identity_check(Poly(F5, [-4, 0, 1]) ** 2, a)
    assert discriminant_identity_check(SEXTIC, a)


def test_discriminant_identity_transform_of_irreducibles():
    for a in F5.units():
        count = 0
        for lower in itertools.product(range(5), repeat=3):
            f = Poly(F5, lower + (1,))
            if not is_irreducible(f):
                continue
            count += 1
            assert discriminant_identity_check(quadratic_transform(f, a), a)
        assert count == 40  # (5^3 - 5) / 3 monic irreducible cubics


def test_extension_field_structure_sweep():
    # the counting/parity grids elsewhere stay over prime fields; this
    # sweep drives classification, stripping, the parity criterion and
    # the discriminant identity through F_9, where the Frobenius and the
    # quadratic character behave differently (e.g. -1 is a square)
    for a in F9.units():
        quad = Poly(F9, (-a, F9.zero, F9.one))
        for n in (1, 2):
            for kind in ("trivial", "nontrivial"):
                for f in enumerate_srm(F9, a, n, kind):
                    k, g = strip_x2_minus_a(f, a)
                    assert quad ** k * g == f
                    assert (k % 2 == 1) == (kind == "trivial")
            for f in enumerate_srm(F9, a, n, "nontrivial"):
                verdict = parity_indicator(f, a)
                if verdict.verdict is not Parity.NOT_APPLICABLE:
                    r = factor_count(f, with_multiplicity=True)
                    assert (verdict.verdict is Parity.EVEN) == (r % 2 == 0), \
                        (f.to_string(), str(a))
                assert discriminant_identity_check(f, a)


# -- planted theory faults that the taxonomy and the strips raise on ------------------


@pytest.mark.parametrize("a,f,message", [
    # x^2 + x + 1 has constant 1, not +-2; 2 is a non-square mod 5; sqrt(4) = +-2
    (2, "1,1,1", "self-reciprocal constant term outside +-a^m"),
    (2, "1,1", "odd-degree self-reciprocal polynomial found for a non-square parameter"),
    (4, "1,1", "odd-degree constant term outside +-sqrt(a)^n"),
])
def test_classify_reports_an_impossible_constant(all_self_reciprocal, a, f, message):
    with pytest.raises(VerificationError) as exc:
        classify(Poly.from_string(F5, f), F5.element(a))
    assert str(exc.value) == message


@pytest.mark.parametrize("plant,message", [
    ("overcounted_strip", "stripping parity disagrees with the classification"),
    ("unstripped_residual", "residual factor is not a nontrivial a-srm"),
])
def test_quadratic_strip_reports_a_wrong_strip(request, plant, message):
    # x^2 + 1 over F_3 is a nontrivial 1-srm that x^2 - 1 does not divide
    request.getfixturevalue(plant)
    with pytest.raises(VerificationError) as exc:
        strip_x2_minus_a(Poly.from_string(F3, "1,0,1"), F3.element(1))
    assert str(exc.value) == message


@pytest.mark.parametrize("plant,message", [
    ("overcounted_strip", "linear stripping produced an odd exponent"),
    ("unstripped_residual", "the root survives stripping its linear factor"),
    ("mirrored_residual", "residual factor is not a nontrivial a-srm"),
])
def test_linear_strip_reports_a_wrong_strip(request, plant, message):
    # x^4 + x^3 + x + 1 = (x + 1)^4 over F_3, the residual 1
    request.getfixturevalue(plant)
    with pytest.raises(VerificationError) as exc:
        strip_linear_sqrt(Poly.from_string(F3, "1,1,0,1,1"), F3.element(1), -1)
    assert str(exc.value) == message


def test_quadratic_transform_reports_an_unclassified_output(unlabelled_odd):
    with pytest.raises(VerificationError) as exc:
        quadratic_transform(Poly(F5, (1, 1, 1)), F5.element(2))
    assert str(exc.value) == "quadratic transform output failed to classify as nontrivial"
