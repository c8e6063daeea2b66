import dataclasses

import pytest

from gfrecip import Field, census, recip

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
