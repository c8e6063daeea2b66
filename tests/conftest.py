import dataclasses

import pytest

from gfrecip import Field, Poly, census, recip

acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def F3():
    return Field(3)


@pytest.fixture(scope="session")
def F5():
    return Field(5)


@pytest.fixture(scope="session")
def F7():
    return Field(7)


@pytest.fixture(scope="session")
def F9():
    return Field(3, 2)


# -- planted faults on the theory side, for the referees to catch ---------------


@pytest.fixture
def swapped_parity(monkeypatch):
    """recip.parity_indicator calling every even count odd and every odd
    count even; the fixture's value is the true indicator."""
    parity_indicator = recip.parity_indicator
    other = {recip.Parity.EVEN: recip.Parity.ODD, recip.Parity.ODD: recip.Parity.EVEN}

    def swapped(f, a):
        verdict = parity_indicator(f, a)
        return dataclasses.replace(verdict, verdict=other.get(verdict.verdict, verdict.verdict))

    monkeypatch.setattr(recip, "parity_indicator", swapped)
    return parity_indicator


@pytest.fixture
def off_formula(monkeypatch):
    """census.si_formula counting one a-srim too many."""
    si_formula = census.si_formula
    monkeypatch.setattr(census, "si_formula",
                        lambda fld, a_is_square, n: si_formula(fld, a_is_square, n) + 1)


@pytest.fixture
def off_reciprocal(monkeypatch):
    """recip.a_reciprocal adding 1 to every answer, which no product
    rule survives: (fg)* + 1 != (f* + 1)(g* + 1) as f* + g* != 0."""
    a_reciprocal = recip.a_reciprocal
    monkeypatch.setattr(recip, "a_reciprocal", lambda f, a: a_reciprocal(f, a) + 1)


@pytest.fixture
def swapped_odd_branches(monkeypatch):
    """recip.classify labelling every ODD_PLUS polynomial ODD_MINUS and
    back; the fixture's value is the true classify."""
    classify = recip.classify
    other = {recip.SrmVerdict.ODD_PLUS: recip.SrmVerdict.ODD_MINUS,
             recip.SrmVerdict.ODD_MINUS: recip.SrmVerdict.ODD_PLUS}

    def swapped(f, a):
        kind = classify(f, a)
        return dataclasses.replace(kind, verdict=other.get(kind.verdict, kind.verdict))

    monkeypatch.setattr(recip, "classify", swapped)
    return classify


@pytest.fixture
def odd_linear_exponent(monkeypatch):
    """recip.strip_linear_sqrt reporting k + 1 for the exponent k it
    stripped."""
    strip_linear_sqrt = recip.strip_linear_sqrt

    def off(f, a, sign):
        k, g = strip_linear_sqrt(f, a, sign)
        return k + 1, g

    monkeypatch.setattr(recip, "strip_linear_sqrt", off)


@pytest.fixture
def negated_delta(monkeypatch):
    """census.delta with its sign flipped."""
    delta = census.delta
    monkeypatch.setattr(census, "delta", lambda fld, a, n: -delta(fld, a, n))


@pytest.fixture
def off_master(monkeypatch):
    """census.m_poly adding x to every master polynomial."""
    m_poly = census.m_poly
    monkeypatch.setattr(census, "m_poly",
                        lambda fld, a, n: m_poly(fld, a, n) + Poly.x(fld))
