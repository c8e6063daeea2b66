import pytest

from gfrecip import Factorization, Field, Poly
from gfrecip import census, verify

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
