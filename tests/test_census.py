import random

import pytest

from gfrecip import (
    DomainError,
    Field,
    Poly,
    ResourceError,
    SrmVerdict,
    VerificationError,
    carlitz_count,
    census_csv,
    census_row,
    census_sweep,
    classify,
    delta,
    enumerate_odd_srm,
    enumerate_srm,
    h_poly,
    is_a_self_reciprocal,
    m_poly,
    mobius,
    si_enumerated,
    si_formula,
    si_product,
)
from gfrecip import verify
from gfrecip.census import _master_divisors
from gfrecip.factor import DEFAULT_SEED, factor_count, factorize

F3 = Field(3)
F5 = Field(5)
F9 = Field(3, 2)


# -- integer machinery -----------------------------------------------------------


def _mobius_oracle(n):
    # brute factorization into primes, squarefree sign
    out = 1
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
    return out


def test_mobius_values():
    assert [mobius(d) for d in (1, 2, 3, 4, 5, 6)] == [1, -1, -1, 0, -1, 1]
    for d in range(1, 80):
        assert mobius(d) == _mobius_oracle(d)
    with pytest.raises(DomainError):
        mobius(0)


def test_mobius_odd_divisor_sum():
    # sum of mu(d) over odd divisors d of n: 1 when n is a power of two, else 0
    for n in range(1, 65):
        total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0 and d % 2 == 1)
        assert total == (1 if n & (n - 1) == 0 else 0)


def test_odd_divisor_inversion():
    # F(n) = sum f(d) over d | n with n/d odd  <=>
    # f(n) = sum mu(d) F(n/d) over odd d | n
    rng = random.Random(7)
    f = {n: rng.randrange(-50, 50) for n in range(1, 25)}
    F = {n: sum(f[d] for d in range(1, n + 1) if n % d == 0 and (n // d) % 2 == 1)
         for n in range(1, 25)}
    for n in range(1, 25):
        recovered = sum(mobius(d) * F[n // d]
                        for d in range(1, n + 1) if n % d == 0 and d % 2 == 1)
        assert recovered == f[n]


# -- delta and the master polynomials ------------------------------------------------


def test_delta_cases():
    assert delta(F5, F5.element(4), 1) == -1  # square
    assert delta(F5, F5.element(2), 1) == 1   # non-square, odd n
    assert delta(F5, F5.element(2), 2) == -1  # non-square, even n
    with pytest.raises(DomainError):
        delta(F5, F5.zero, 1)


def test_h_poly():
    h = h_poly(F3, F3.element(2), 1)
    assert h == Poly(F3, [1] + [0] * 3 + [1])  # x^4 + 1
    assert h_poly(F5, F5.element(4), 1).degree == 6
    assert not h_poly(F3, F3.element(2), 2) % Poly(F3, [-2, 0, 1])
    assert not h_poly(F5, F5.element(4), 1) % Poly(F5, [-4, 0, 1])
    with pytest.raises(DomainError):
        h_poly(F5, F5.zero, 1)
    with pytest.raises(DomainError):
        h_poly(F5, F5.element(1), 0)


def test_degree_budget():
    with pytest.raises(ResourceError):
        h_poly(F5, F5.element(1), 8)  # 5^8 + 1 > 100000
    # the one fixed ceiling, from both sides: 99991 + 1 <= 100000 < 100003 + 1
    assert h_poly(Field(99991), 1, 1).degree == 99992
    with pytest.raises(ResourceError):
        h_poly(Field(100003), 1, 1)
    with pytest.raises(ResourceError):
        m_poly(F5, F5.element(1), 8)


def test_unbounded_n_refused_before_any_work():
    # q^n is never built for an unbounded n: each guard refuses at once
    with pytest.raises(ResourceError):
        next(enumerate_srm(F3, 1, 10**12, "nontrivial"))
    for n in (10**12, 2**40):
        with pytest.raises(ResourceError):
            carlitz_count(3, n)
        with pytest.raises(ResourceError):
            h_poly(F3, 1, n)


def test_m_poly_values():
    assert m_poly(F3, F3.element(2), 2) == Poly.from_string(F3, "1,0,2,0,1,0,2,0,1")
    assert m_poly(F5, F5.element(2), 1) == Poly(F5, [-2] + [0] * 5 + [1])  # unchanged
    assert m_poly(F5, F5.element(4), 1) == Poly.from_string(F5, "1,0,4,0,1")


# -- counting formulas ------------------------------------------------------------------


def test_si_formula_spot_values():
    assert si_formula(F5, True, 1) == 2
    assert si_formula(F5, False, 1) == 3
    assert si_formula(F5, True, 2) == 6
    assert si_formula(F5, False, 2) == 6
    assert si_formula(F3, True, 2) == 2
    assert si_formula(F5, True, 3) == 20
    assert si_formula(F3, True, 4) == 10
    assert si_formula(F5, True, 4) == 78
    assert si_formula(Field(7), True, 3) == 56
    assert si_formula(F9, True, 1) == 4
    assert si_formula(F9, False, 1) == 5
    assert si_formula(F9, True, 3) == 120
    with pytest.raises(DomainError):
        si_formula(F5, True, 0)


def test_si_formula_integrality():
    for field in (F3, F5, Field(7), F9):
        for n in range(1, 13):
            assert si_formula(field, True, n) >= 0
            assert si_formula(field, False, n) >= 0


def test_carlitz_count():
    assert carlitz_count(3, 1) == 1
    assert carlitz_count(3, 2) == 2
    assert carlitz_count(5, 2) == 6
    assert carlitz_count(5, 3) == 20
    assert carlitz_count(7, 4) == 300
    with pytest.raises(DomainError):
        carlitz_count(4, 1)
    with pytest.raises(DomainError):
        carlitz_count(5, 0)


def test_carlitz_matches_counts_at_one():
    # a = 1 is a square, and the scaled counts then agree with the
    # classical self-reciprocal counts on every branch
    for q, field in ((3, F3), (5, F5), (7, Field(7))):
        one = field.one
        for n in (1, 2, 3, 4):
            assert si_formula(field, True, n) == carlitz_count(q, n)
        assert si_enumerated(field, one, 1) == carlitz_count(q, 1)
        assert si_enumerated(field, one, 2) == carlitz_count(q, 2)


# -- enumeration ---------------------------------------------------------------------


def test_enumerate_srm_f3_quadratics():
    a = F3.element(2)
    nontrivial = [f.to_string() for f in enumerate_srm(F3, a, 1, "nontrivial")]
    assert nontrivial == ["2,0,1", "2,1,1", "2,2,1"]
    trivial = [f.to_string() for f in enumerate_srm(F3, a, 1, "trivial")]
    assert trivial == ["1,0,1"]


def test_enumerate_srm_counts_and_membership():
    for field, a_spec in ((F3, 2), (F5, 4), (F5, 3), (F9, [0, 1])):
        a = field.element(a_spec)
        for n in (1, 2):
            nontrivial = list(enumerate_srm(field, a, n, "nontrivial"))
            trivial = list(enumerate_srm(field, a, n, "trivial"))
            assert len(nontrivial) == field.q ** n
            assert len(trivial) == field.q ** (n - 1)
            assert len({f.to_string() for f in nontrivial + trivial}) == \
                len(nontrivial) + len(trivial)
            for f in nontrivial:
                assert classify(f, a).verdict is SrmVerdict.NONTRIVIAL
            for f in trivial:
                assert classify(f, a).verdict is SrmVerdict.TRIVIAL


def test_enumerate_srm_is_exhaustive():
    # independent completeness check: scan every monic quartic over F_3
    import itertools
    a = F3.element(2)
    expected = set()
    for lower in itertools.product(range(3), repeat=4):
        f = Poly(F3, lower + (1,))
        if f[0] and is_a_self_reciprocal(f, a):
            expected.add(f.to_string())
    enumerated = {f.to_string()
                  for kind in ("trivial", "nontrivial")
                  for f in enumerate_srm(F3, a, 2, kind)}
    assert enumerated == expected


def test_sample_sextic_is_enumerated():
    stream = enumerate_srm(F5, F5.element(4), 3, "nontrivial")
    assert any(f.to_string() == "4,1,2,4,3,1,1" for f in stream)


def test_enumerate_srm_bad_kind():
    with pytest.raises(DomainError):
        list(enumerate_srm(F5, F5.element(1), 1, "both"))


def test_enumerate_odd_srm():
    a = F5.element(4)
    linear = [f.to_string() for f in enumerate_odd_srm(F5, a, 1)]
    assert sorted(linear) == ["2,1", "3,1"]  # x + sqrt(a) and x - sqrt(a)
    cubics = list(enumerate_odd_srm(F5, a, 3))
    assert len(cubics) == 2 * 5
    for f in cubics:
        assert is_a_self_reciprocal(f, a)
    assert list(enumerate_odd_srm(F5, F5.element(2), 3)) == []  # non-square


# -- counts vs enumeration ----------------------------------------------------------------


def test_si_enumerated_spot_values():
    assert si_enumerated(F3, F3.element(2), 2) == 2
    assert si_enumerated(F5, F5.element(4), 1) == 2
    assert si_enumerated(F5, F5.element(2), 1) == 3


def test_si_product_small():
    a = F3.element(2)
    assert si_product(F3, a, 1) == m_poly(F3, a, 1)
    prod2 = si_product(F3, a, 2)
    assert prod2 == m_poly(F3, a, 2)
    assert prod2.degree == 2 * 2 * si_enumerated(F3, a, 2)
    a = F5.element(4)
    prod3 = si_product(F5, a, 3)
    assert prod3.degree == 6 * 20
    assert m_poly(F5, a, 3) == prod3 * m_poly(F5, a, 1)


def test_verify_count_sum_identity():
    assert verify.run_check("cor2", F5, F5.element(4), 1).ok
    assert verify.run_check("cor2", F5, F5.element(2), 1).ok
    assert verify.run_check("cor2", F3, F3.element(2), 2).ok
    assert verify.run_check("cor2", F9, F9.element([0, 1]), 2).ok


def test_master_factor_count_at_degree_19684():
    # the walk's packed gcd takes its unbalanced first step, gcd(x^(q^d) - x,
    # m_poly) with a degree gap near 19680, dividing by the sparse x^(q^d) - x
    # throughout, and the count identity holds beyond the exhaustive checks'
    # reach: F_3, a = 2 (a non-square), n = 9
    f = m_poly(F3, F3.element(2), 9)
    assert f.degree == 19684
    want = sum(si_formula(F3, False, d) for d in _master_divisors(9))
    assert want == 1098
    assert factor_count(f, with_multiplicity=False) == want


def test_master_factorization_at_degree_2188():
    # the whole oracle at the paper's degrees: squarefree parts, the walk
    # and every equal-degree split of m_poly over F_3, a = 2, n = 7, whose
    # exact divisions take the Newton quotient
    f = m_poly(F3, F3.element(2), 7)
    assert f.degree == 2188
    divisors = _master_divisors(7)
    want = sum(si_formula(F3, False, d) for d in divisors)
    assert want == 158
    result = factorize(f)
    assert result.unit == F3.one
    allowed = {2 * d for d in divisors}
    for g, mult in result.factors:
        assert g.is_monic and mult == 1 and g.degree in allowed
    assert len(result.factors) == want


def test_verify_master_factorization():
    for a in F3.units():
        for n in (1, 2, 3):
            assert verify.run_check("6", F3, a, n).ok
    assert verify.run_check("6", F5, F5.element(4), 1).ok
    assert verify.run_check("6", F5, F5.element(2), 1).ok


def test_check_9_factors_with_the_requested_seed(monkeypatch):
    seeds = []
    factorize = verify.factorize

    def recording_factorize(f, seed=DEFAULT_SEED):
        seeds.append(seed)
        return factorize(f, seed=seed)

    monkeypatch.setattr(verify, "factorize", recording_factorize)
    report = verify.run_check("9", F5, F5.element(2), 2, seed=31)
    assert report.ok and report.checked == len(seeds) > 0
    assert set(seeds) == {31}


# -- census rows and CSV --------------------------------------------------------------------


def test_census_row():
    row = census_row(F5, F5.element(4), 2)
    assert (row.q, row.n, row.delta) == (5, 2, -1)
    assert row.si_formula == 6 and row.si_enumerated == 6
    assert row.agreement is True
    row = census_row(F5, F5.element(4), 2, enumerate_too=False)
    assert row.si_enumerated is None and row.agreement is None


def test_census_csv_golden():
    rows = census_sweep([F3], 1)
    assert census_csv(rows) == (
        "q,a,n,delta,si_formula,si_enumerated,agreement\n"
        "3,1,1,-1,1,1,true\n"
        "3,2,1,1,2,2,true\n"
    )


def test_census_csv_extension_field_elements():
    rows = census_sweep([F9], 1)
    text = census_csv(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 9  # header + 8 nonzero elements
    assert lines[1].startswith("9,t,")  # canonical order starts at t
    assert all(line.endswith(",true") for line in lines[1:])


# -- planted theory faults that the count machinery raises on -------------------------


def test_m_poly_reports_a_failed_division(negated_delta):
    # 2 is not a square mod 5 and n = 1 is odd: x^2 - 2 does not divide x^6 - 2
    with pytest.raises(VerificationError) as exc:
        m_poly(F5, F5.element(2), 1)
    assert str(exc.value) == "x^2 - a failed to divide the master polynomial"


def test_carlitz_count_reports_a_fractional_count(unit_mobius):
    # every mu = 1: (3 - 1) + (3^3 - 1) = 28 over the d | 3, not a multiple of 2n = 6
    with pytest.raises(VerificationError) as exc:
        carlitz_count(3, 3)
    assert str(exc.value) == "classical count is not integral"
