import dataclasses
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import gfrecip
from gfrecip import Field, FieldElement, Poly, census, recip

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


@pytest.fixture
def limited_python():
    """Run Python source in a child process held to 1 GiB of address space,
    with this gfrecip on its path: a list of the q codes of a field as large
    as F_(2^31 - 1) raises MemoryError there, and this process is unaffected."""
    src = str(Path(gfrecip.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))

    def run(source):
        return subprocess.run([sys.executable, "-c", source], env=env, preexec_fn=limit,
                              capture_output=True, text=True, timeout=120)

    return run


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
def rootless_squares(monkeypatch):
    """FieldElement.sqrt answering None for every element, so a square a
    passes for a non-square; the one plant below the theory side, as check
    2's non-square branch compares b0^2 with a^deg in field arithmetic alone."""
    monkeypatch.setattr(FieldElement, "sqrt", lambda self: None)


@pytest.fixture
def off_master(monkeypatch):
    """census.m_poly adding x to every master polynomial."""
    m_poly = census.m_poly
    monkeypatch.setattr(census, "m_poly",
                        lambda fld, a, n: m_poly(fld, a, n) + Poly.x(fld))


@pytest.fixture
def unlabelled_odd(monkeypatch):
    """recip.classify calling every polynomial not self-reciprocal."""
    monkeypatch.setattr(recip, "classify", lambda f, a: recip.SrmClassification(
        recip.SrmVerdict.NOT_SELF_RECIPROCAL))


@pytest.fixture
def overstripped_quadratic(monkeypatch):
    """recip.strip_x2_minus_a reporting k + 2 for the exponent k it stripped."""
    strip_x2_minus_a = recip.strip_x2_minus_a

    def off(f, a):
        k, g = strip_x2_minus_a(f, a)
        return k + 2, g

    monkeypatch.setattr(recip, "strip_x2_minus_a", off)


@pytest.fixture
def understripped_quadratic(monkeypatch):
    """recip.strip_x2_minus_a leaving (x^2 - a)^2 in the residual wherever
    it stripped that much; the fixture's value is the true strip."""
    strip_x2_minus_a = recip.strip_x2_minus_a

    def short(f, a):
        k, g = strip_x2_minus_a(f, a)
        return (k - 2, g * recip._x2_minus_a(a) ** 2) if k >= 2 else (k, g)

    monkeypatch.setattr(recip, "strip_x2_minus_a", short)
    return strip_x2_minus_a


@pytest.fixture
def understripped_linear(monkeypatch):
    """recip.strip_linear_sqrt leaving (x -+ sqrt(a))^2 in the residual."""
    strip_linear_sqrt = recip.strip_linear_sqrt

    def short(f, a, sign):
        k, g = strip_linear_sqrt(f, a, sign)
        root = a.sqrt() if sign > 0 else -a.sqrt()
        return k - 2, g * Poly(f.field, (-root, f.field.one)) ** 2

    monkeypatch.setattr(recip, "strip_linear_sqrt", short)


@pytest.fixture
def unfiltered_srim(monkeypatch):
    """census.enumerate_srim streaming every nontrivial a-srm, irreducible or not."""
    monkeypatch.setattr(census, "enumerate_srim",
                        lambda fld, a, n: census.enumerate_srm(fld, a, n, "nontrivial"))


@pytest.fixture
def identity_transform(monkeypatch):
    """recip.quadratic_transform returning f itself, of degree n, not 2n."""
    monkeypatch.setattr(recip, "quadratic_transform", lambda f, a: f)


@pytest.fixture
def identity_reciprocal(monkeypatch):
    """recip.a_reciprocal returning its input: every polynomial is then
    a-self-reciprocal, and no two distinct ones are a-reciprocals."""
    monkeypatch.setattr(recip, "a_reciprocal", lambda f, a: f)


@pytest.fixture
def unit_mobius(monkeypatch):
    """census.mobius answering 1 for every argument."""
    monkeypatch.setattr(census, "mobius", lambda d: 1)


@pytest.fixture
def all_self_reciprocal(monkeypatch):
    """recip.is_a_self_reciprocal calling every polynomial a-self-reciprocal."""
    monkeypatch.setattr(recip, "is_a_self_reciprocal", lambda f, a: True)


@pytest.fixture
def overcounted_strip(monkeypatch):
    """recip._strip reporting k + 1 for the exponent k it stripped."""
    strip = recip._strip

    def off(f, factor):
        k, g = strip(f, factor)
        return k + 1, g

    monkeypatch.setattr(recip, "_strip", off)


@pytest.fixture
def unstripped_residual(monkeypatch):
    """recip._strip leaving one more factor in the residual than its exponent
    counts: the residual keeps the factor's roots, and x^2 - a times a
    nontrivial a-srm is trivial."""
    strip = recip._strip

    def short(f, factor):
        k, g = strip(f, factor)
        return k, g * factor

    monkeypatch.setattr(recip, "_strip", short)


@pytest.fixture
def mirrored_residual(monkeypatch):
    """recip._strip multiplying the residual by its factor with the constant
    term negated: x + r for x - r, self-reciprocal for a = r^2, so the
    residual is nonzero at r but of odd degree."""
    strip = recip._strip

    def off(f, factor):
        k, g = strip(f, factor)
        return k, g * Poly(f.field, (-factor[0],) + factor.coeffs[1:])

    monkeypatch.setattr(recip, "_strip", off)
