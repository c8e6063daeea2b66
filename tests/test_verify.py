import dataclasses

import pytest

from gfrecip import (Factorization, Field, Poly, factor_count, factorize, is_irreducible,
                     is_squarefree)
from gfrecip import census, recip, verify

F3 = Field(3)
F5 = Field(5)


@pytest.mark.parametrize("token", sorted(verify.CHECKS))
def test_report_carries_its_token_and_derives_ok(token):
    for a in F3.units():
        report = verify.run_check(token, F3, a, 2)
        assert report.check == token
        assert report.ok is (not report.failures)
        assert report.ok, (token, str(a), report.failures)


def test_report_ok_follows_failures():
    report = verify.CheckReport()
    assert report.ok is True
    for i in range(25):
        report.fail(f"case {i}")
    assert report.ok is False
    assert len(report.failures) == 20


def test_count_sum_identity_reports_an_off_count(monkeypatch):
    si_enumerated = census.si_enumerated
    monkeypatch.setattr(census, "si_enumerated",
                        lambda fld, a, n: si_enumerated(fld, a, n) + 1)
    # q^2 + delta = 24 = deg m_poly = 2*2*si(2) over F_5, for square and non-square a
    for a in (F5.element(4), F5.element(2)):
        report = verify.run_check("cor2", F5, a, 2)
        assert not report.ok
        assert report.failures == ["q^n + delta = 24 but the divisor sum is 28",
                                   "m_poly has degree 24 but the divisor sum is 28"]


def test_master_factorization_reports_a_repeated_factor(monkeypatch):
    factorize = verify.factorize

    def squaring_factorize(f, seed):
        result = factorize(f, seed)
        first, _ = result.factors[0]
        return Factorization(result.unit, ((first, 2),) + result.factors[1:])

    monkeypatch.setattr(verify, "factorize", squaring_factorize)
    report = verify.run_check("6", F5, F5.element(2), 2)
    assert not report.ok
    first = factorize(census.m_poly(F5, F5.element(2), 2)).factors[0][0]
    assert report.failures == [f"factor {first.to_string()}: degree 4, multiplicity 2"]


def test_master_factorization_reports_a_wrong_shape(monkeypatch):
    # x^2 + x + 1 over F_5 has degree 2 but is not 2-self-reciprocal
    factorize = verify.factorize
    stranger = Poly(F5, (1, 1, 1))

    def stranger_factorize(f, seed):
        result = factorize(f, seed)
        return Factorization(result.unit, result.factors + ((stranger, 1),))

    monkeypatch.setattr(verify, "factorize", stranger_factorize)
    report = verify.run_check("6", F5, F5.element(2), 1)
    assert report.failures == ["factor 1,1,1 is not a nontrivial a-srm"]


def test_quadratic_strip_reports_a_mislabelled_stream(monkeypatch):
    # each stream sent under the other kind's name: stripping agrees with the
    # classification, so only the check's own parity comparison fails
    enumerate_srm = census.enumerate_srm
    other = {"trivial": "nontrivial", "nontrivial": "trivial"}
    monkeypatch.setattr(census, "enumerate_srm",
                        lambda fld, a, n, kind: enumerate_srm(fld, a, n, other[kind]))
    a = F5.element(2)
    report = verify.run_check("3", F5, a, 2)
    # the "nontrivial" pass, now 5 trivial polynomials, runs first
    streams = [f for kind in ("trivial", "nontrivial") for f in enumerate_srm(F5, a, 2, kind)]
    assert report.ok is False
    assert report.checked == len(streams) == 30
    assert report.failures == [f"exponent parity wrong for {f.to_string()}"
                               for f in streams[:20]]


def test_count_formula_reports_an_off_formula(off_formula):
    # si(2, 5) = (5^2 - 1) / 4 = 6
    report = verify.run_check("7", F5, F5.element(2), 2)
    assert report.ok is False
    assert report.failures == ["formula 7 != enumerated 6"]
    assert report.note == "si(2, 5) = 7"


@pytest.mark.parametrize("token,squarefree_only", [("8", True), ("10", False)])
def test_parity_checks_report_a_swapped_verdict(swapped_parity, token, squarefree_only):
    true_indicator = swapped_parity
    a = F5.element(2)
    report = verify.run_check(token, F5, a, 2)
    expected = []
    for f in census.enumerate_srm(F5, a, 2, "nontrivial"):
        verdict = true_indicator(f, a).verdict
        if (squarefree_only and not is_squarefree(f)) or verdict is recip.Parity.NOT_APPLICABLE:
            continue
        r = factor_count(f, with_multiplicity=not squarefree_only)
        swapped = "odd" if verdict is recip.Parity.EVEN else "even"
        expected.append(f"{f.to_string()}: verdict {swapped}, r = {r}")
    assert report.ok is False
    assert report.checked == len(expected) > 0
    assert report.failures == expected[:20]


def test_parity_squarefree_reports_a_vanishing_indicator(monkeypatch):
    parity_indicator = recip.parity_indicator
    monkeypatch.setattr(recip, "parity_indicator", lambda f, a: dataclasses.replace(
        parity_indicator(f, a), verdict=recip.Parity.NOT_APPLICABLE))
    a = F5.element(2)
    report = verify.run_check("8", F5, a, 2)
    squarefree = [f for f in census.enumerate_srm(F5, a, 2, "nontrivial") if is_squarefree(f)]
    assert report.ok is False
    assert report.checked == len(squarefree) > 0
    assert report.failures == [f"indicator vanishes on squarefree {f.to_string()}"
                               for f in squarefree[:20]]


def test_transform_check_reports_a_wrong_transform(monkeypatch):
    # a "transform" f^2 factors as f twice: neither an irreducible of degree 2n
    # nor two distinct degree-n factors.  With a = 4 = 2^2 no irreducible
    # quadratic over F_5 vanishes at +-sqrt(a), so none is skipped.
    monkeypatch.setattr(recip, "quadratic_transform", lambda f, a: f * f)
    report = verify.run_check("9", F5, F5.element(4), 2)
    irreducibles = [f for f in verify._monic_polys(F5, 2) if is_irreducible(f)]
    assert report.ok is False
    assert report.checked == len(irreducibles) == 10
    assert report.failures == [f"{f.to_string()}: unexpected split {[f.to_string()]}"
                               for f in irreducibles]


def test_product_rule_reports_an_off_reciprocal(off_reciprocal):
    # the candidates over F_3 at n = 1 are x + 1 and x + 2: every pair fails
    report = verify.run_check("1", F3, F3.element(2), 1)
    assert report.ok is False
    assert report.checked == 4
    assert report.failures == [f"product rule fails for {f} * {g}"
                               for f in ("1,1", "2,1") for g in ("1,1", "2,1")]


def test_odd_roots_report_swapped_branches(swapped_odd_branches):
    # each odd a-srm is tested at the other branch's root; the two cubics
    # divisible by x^2 - a vanish at both roots and still pass
    classify = swapped_odd_branches
    a = F5.element(4)
    root = a.sqrt()
    report = verify.run_check("2", F5, a, 3)
    expected = []
    for deg in (3, 1):
        for f in census.enumerate_odd_srm(F5, a, deg):
            if classify(f, a).verdict is recip.SrmVerdict.ODD_PLUS:
                if f(root):
                    expected.append(f"{f.to_string()} (minus branch) misses root sqrt(a)")
            elif f(-root):
                expected.append(f"{f.to_string()} (plus branch) misses root -sqrt(a)")
    assert report.ok is False
    assert report.checked == 12
    assert len(expected) == 10
    assert report.failures == expected


def test_linear_strip_reports_an_odd_exponent(odd_linear_exponent):
    # over F_3 with a = 1 the first two quartics shed (x -+ 1)^4 and the
    # other two (x -+ 1)^2; k + 1 is odd and rebuilds too much
    report = verify.run_check("4", F3, F3.element(1), 2)
    assert report.ok is False
    assert report.checked == 4
    assert report.failures == [
        "1,1,0,1,1: exponent 5 at sign -1", "1,1,0,1,1: reconstruction fails at sign -1",
        "1,2,0,2,1: exponent 5 at sign +1", "1,2,0,2,1: reconstruction fails at sign +1",
        "1,1,2,1,1: exponent 3 at sign +1", "1,1,2,1,1: reconstruction fails at sign +1",
        "1,2,2,2,1: exponent 3 at sign -1", "1,2,2,2,1: reconstruction fails at sign -1",
    ]


def test_master_divisibility_reports_a_negated_delta(negated_delta):
    # x^2 - 2 does not divide x^6 - 2 over F_5, and x^2 - 4 divides x^6 - 4
    for a, failure in ((2, "divisibility False but delta predicts True"),
                       (4, "divisibility True but delta predicts False")):
        report = verify.run_check("5", F5, F5.element(a), 1)
        assert report.ok is False
        assert report.checked == 1
        assert report.failures == [failure]


def test_odd_roots_report_an_unlabelled_polynomial(unlabelled_odd):
    a = F5.element(4)
    report = verify.run_check("2", F5, a, 3)
    streams = [f for deg in (3, 1) for f in census.enumerate_odd_srm(F5, a, deg)]
    assert report.ok is False
    assert report.checked == len(streams) == 12
    assert report.failures == [f"{f.to_string()} enumerated but not classified odd"
                               for f in streams]


def test_quadratic_strip_reports_a_failed_reconstruction(overstripped_quadratic):
    # x^2 + b x + 1 for b = 0, 1, 2 (nontrivial), then x^2 - 1 (trivial)
    report = verify.run_check("3", F3, F3.element(1), 1)
    assert report.ok is False
    assert report.checked == 4
    assert report.failures == [f"reconstruction fails for {f}"
                               for f in ("1,0,1", "1,1,1", "1,2,1", "2,0,1")]


def test_quadratic_strip_reports_a_divisible_residual(understripped_quadratic):
    # (x^2 - 1)^2 = x^4 + x^2 + 1 is the one quartic over F_3 to shed (x^2 - 1)^2
    strip_x2_minus_a = understripped_quadratic
    a = F3.element(1)
    report = verify.run_check("3", F3, a, 2)
    streams = [f for kind in ("nontrivial", "trivial") for f in census.enumerate_srm(F3, a, 2, kind)]
    assert [f for f in streams if strip_x2_minus_a(f, a)[0] >= 2] == [Poly(F3, (1, 0, 1, 0, 1))]
    assert report.ok is False
    assert report.checked == len(streams) == 12
    assert report.failures == ["residual still divisible for 1,0,1,0,1"]


def test_linear_strip_reports_a_vanishing_residual(understripped_linear):
    # the quartics of test_linear_strip_reports_an_odd_exponent: the first two
    # shed (x -+ 1)^4, and keep (x -+ 1)^2; the other two shed it all back
    report = verify.run_check("4", F3, F3.element(1), 2)
    assert report.ok is False
    assert report.checked == 4
    assert report.failures == [
        "1,1,0,1,1: residual still vanishes at sign -1",
        "1,2,0,2,1: residual still vanishes at sign +1",
        "1,1,2,1,1: exponent 0 at sign +1", "1,1,2,1,1: residual still vanishes at sign +1",
        "1,2,2,2,1: exponent 0 at sign -1", "1,2,2,2,1: residual still vanishes at sign -1",
    ]


def test_master_factorization_reports_a_non_divisor(unfiltered_srim):
    # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1) over F_3: of x^2 + b x + 1, the squares
    # (x - 1)^2 = x^2 + x + 1 and (x + 1)^2 = x^2 + 2x + 1 do not divide it
    report = verify.run_check("6", F3, F3.element(1), 1)
    assert report.ok is False
    assert report.failures == [f"a-srim {f} does not divide the master polynomial"
                               for f in ("1,1,1", "1,2,1")]


def test_transform_check_reports_a_transform_of_wrong_degree(identity_transform):
    report = verify.run_check("9", F5, F5.element(4), 2)
    irreducibles = [f for f in verify._monic_polys(F5, 2) if is_irreducible(f)]
    assert report.ok is False
    assert report.checked == len(irreducibles) == 10
    assert report.failures == [f"{f.to_string()}: irreducible transform of wrong degree"
                               for f in irreducibles]


def test_transform_check_reports_a_wrong_reciprocal(identity_reciprocal):
    # every transform that splits fails twice: its factors are then each
    # self-reciprocal, and neither is the other's a-reciprocal
    a = F5.element(4)
    report = verify.run_check("9", F5, a, 2)
    split = [f for f in verify._monic_polys(F5, 2)
             if is_irreducible(f) and len(factorize(recip.quadratic_transform(f, a)).factors) == 2]
    assert report.ok is False
    assert report.checked == 10
    assert len(split) == 4
    assert report.failures == [f"{f.to_string()}: {reason}" for f in split for reason in (
        "factors are not an a-reciprocal pair", "a factor is self-reciprocal")]
