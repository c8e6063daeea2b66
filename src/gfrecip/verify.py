"""Named structural checks behind the ``verify`` CLI subcommand.

Each check sweeps an exhaustive family of inputs for a given (field, a)
pair and reports how many cases it examined and which ones failed.  The
CHECKS registry is the one place a check lives: its key is the token the
CLI accepts, its value the function and its description, and run_check
stamps the token on the report.  Every check's logic is written here,
the divisor-sum identity and the master factorization included; census
supplies only the objects they examine.  The same functions back the
acceptance test suite, with the factorization oracle always on the
other side of the comparison from the formula or criterion under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple

from . import census, recip
from .errors import DomainError, capped_power, within_budget
from .factor import DEFAULT_SEED, factor_count, factorize, is_irreducible
from .field import Field, FieldElement
from .poly import Poly, is_squarefree, pow_mod


@dataclass
class CheckReport:
    check: str = ""  # set by run_check
    checked: int = 0
    failures: list[str] = dataclass_field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        if len(self.failures) < 20:
            self.failures.append(message)


def _monic_polys(fld: Field, degree: int, nonzero_constant: bool = False):
    # Field._tuples order, constant first: the nonzero constants start at tuple q^(degree-1)
    within_budget(capped_power(fld.q, degree), f"the degree-{degree} polynomial sweep")
    for lower in fld._tuples(degree, fld.q ** (degree - 1) if nonzero_constant else 0):
        yield Poly._raw(fld, lower + (1,))


def check_reciprocal_product(fld: Field, a: FieldElement, n: int, *,
                             seed: int) -> CheckReport:
    """Multiplicativity: the a-reciprocal of f*g is the product of the
    a-reciprocals, exhaustively over monic f, g of degree <= n with
    nonzero constant terms."""
    report = CheckReport()
    # (q - 1) q^(d-1) candidates of each degree d <= n: q^n - 1 in all
    within_budget((capped_power(fld.q, n) - 1) ** 2, "the product-rule pair loop")
    candidates = [f for d in range(1, n + 1)
                  for f in _monic_polys(fld, d, nonzero_constant=True)]
    reciprocals = [recip.a_reciprocal(f, a) for f in candidates]
    for f, rf in zip(candidates, reciprocals):
        for g, rg in zip(candidates, reciprocals):
            report.checked += 1
            if recip.a_reciprocal(f * g, a) != rf * rg:
                report.fail(f"product rule fails for {f.to_string()} * {g.to_string()}")
    return report


def check_odd_srm_roots(fld: Field, a: FieldElement, n: int, *,
                        seed: int) -> CheckReport:
    """Forced roots of odd-degree a-srm polynomials: the plus branch
    (b_0 = sqrt(a)^deg) vanishes at -sqrt(a), the minus branch at
    +sqrt(a).  Vacuous when a is not a square."""
    report = CheckReport()
    root = a.sqrt()
    if root is None:
        report.note = "a is not a square: no odd-degree a-srm polynomials exist"
        within_budget((fld.q - 1) * ((n + 1) // 2), "the constant-term scan")
        for b0 in fld.units():
            for deg in range(1, n + 1, 2):
                report.checked += 1
                if b0 * b0 == a ** deg:
                    report.fail(f"odd degree {deg} admits constant term {b0}")
        return report
    for deg in reversed(range(1, n + 1, 2)):  # the largest stream, and its guard, first
        for f in census.enumerate_odd_srm(fld, a, deg):
            report.checked += 1
            kind = recip.classify(f, a)
            if kind.verdict is recip.SrmVerdict.ODD_PLUS:
                if f(-root):
                    report.fail(f"{f.to_string()} (plus branch) misses root -sqrt(a)")
            elif kind.verdict is recip.SrmVerdict.ODD_MINUS:
                if f(root):
                    report.fail(f"{f.to_string()} (minus branch) misses root sqrt(a)")
            else:
                report.fail(f"{f.to_string()} enumerated but not classified odd")
    return report


def check_quadratic_strip(fld: Field, a: FieldElement, n: int, *,
                          seed: int) -> CheckReport:
    """Exact stripping of x^2 - a from every a-srm of degree 2n: the
    exponent parity matches trivial/nontrivial and the residual is a
    nontrivial a-srm not divisible by x^2 - a."""
    report = CheckReport()
    quadratic = recip._x2_minus_a(a)
    for kind in ("nontrivial", "trivial"):  # the larger stream, and its guard, first
        for f in census.enumerate_srm(fld, a, n, kind):
            report.checked += 1
            k, g = recip.strip_x2_minus_a(f, a)
            if quadratic ** k * g != f:
                report.fail(f"reconstruction fails for {f.to_string()}")
            if (k % 2 == 1) != (kind == "trivial"):
                report.fail(f"exponent parity wrong for {f.to_string()}")
            if g.degree > 0 and not g % quadratic:
                report.fail(f"residual still divisible for {f.to_string()}")
    return report


def check_linear_strip(fld: Field, a: FieldElement, n: int, *,
                       seed: int) -> CheckReport:
    """For square a: every nontrivial a-srm of degree 2n not divisible by
    x^2 - a but vanishing at +-sqrt(a) sheds that root an even number of
    times, leaving a nontrivial a-srm nonzero there."""
    report = CheckReport()
    root = a.sqrt()
    if root is None:
        report.note = "a is not a square: nothing to strip"
        return report
    quadratic = recip._x2_minus_a(a)
    for f in census.enumerate_srm(fld, a, n, "nontrivial"):
        if not f % quadratic:
            continue
        for sign, r in ((1, root), (-1, -root)):
            if f(r):
                continue
            report.checked += 1
            k, g = recip.strip_linear_sqrt(f, a, sign)
            linear = Poly(fld, (-r, fld.one))
            if k == 0 or k % 2 != 0:
                report.fail(f"{f.to_string()}: exponent {k} at sign {sign:+d}")
            if linear ** k * g != f:
                report.fail(f"{f.to_string()}: reconstruction fails at sign {sign:+d}")
            if not g(r):
                report.fail(f"{f.to_string()}: residual still vanishes at sign {sign:+d}")
    return report


def check_master_divisibility(fld: Field, a: FieldElement, n: int, *,
                              seed: int) -> CheckReport:
    """x^2 - a divides x^(q^n + 1) - a exactly when delta = -1."""
    report = CheckReport(checked=1)
    h = census.h_poly(fld, a, n)
    divisible = not h % recip._x2_minus_a(a)
    expected = census.delta(fld, a, n) == -1
    if divisible != expected:
        report.fail(f"divisibility {divisible} but delta predicts {expected}")
    return report


def check_master_factorization(fld: Field, a: FieldElement, n: int, *,
                               seed: int) -> CheckReport:
    """Factor the stripped master polynomial with the oracle and match
    every factor against the allowed nontrivial a-srim shapes."""
    report = CheckReport(checked=1)
    allowed = {2 * d for d in census._master_divisors(n)}
    for g, mult in factorize(census.m_poly(fld, a, n), seed).factors:
        if mult != 1 or g.degree not in allowed:
            report.fail(f"factor {g.to_string()}: degree {g.degree}, multiplicity {mult}")
        elif recip.classify(g, a).verdict is not recip.SrmVerdict.NONTRIVIAL:
            report.fail(f"factor {g.to_string()} is not a nontrivial a-srm")
    for f in census.enumerate_srim(fld, a, n):
        if pow_mod(Poly.x(fld), fld.q ** n + 1, f) != Poly.constant(fld, a):
            report.fail(f"a-srim {f.to_string()} does not divide the master polynomial")
    return report


def check_count_formula(fld: Field, a: FieldElement, n: int, *,
                        seed: int) -> CheckReport:
    """Closed-form count equals the enumerated count."""
    report = CheckReport(checked=1)
    formula = census.si_formula(fld, a.is_square(), n)
    enumerated = census.si_enumerated(fld, a, n)
    if formula != enumerated:
        report.fail(f"formula {formula} != enumerated {enumerated}")
    report.note = f"si({n}, {fld.q}) = {formula}"
    return report


def check_parity_squarefree(fld: Field, a: FieldElement, n: int, *,
                            seed: int) -> CheckReport:
    """Squarefree nontrivial a-srm polynomials of degree 2n: the parity
    verdict matches the oracle's distinct factor count, and the
    indicator never vanishes on this family."""
    report = CheckReport()
    for f in census.enumerate_srm(fld, a, n, "nontrivial"):
        if not is_squarefree(f):
            continue
        report.checked += 1
        verdict = recip.parity_indicator(f, a)
        if verdict.verdict is recip.Parity.NOT_APPLICABLE:
            report.fail(f"indicator vanishes on squarefree {f.to_string()}")
            continue
        r = factor_count(f, with_multiplicity=False)
        if verdict.verdict is not recip._parity_of(r):
            report.fail(f"{f.to_string()}: verdict {verdict.verdict.value}, r = {r}")
    return report


def check_transform_irreducibles(fld: Field, a: FieldElement, n: int, *,
                                 seed: int) -> CheckReport:
    """For every monic irreducible f of degree n whose quadratic
    transform does not vanish at +-sqrt(a): the transform is either
    irreducible (an a-srim of degree 2n) or the product of two degree-n
    irreducibles that are a-reciprocals of each other and not
    self-reciprocal.  The nonvanishing hypothesis must sit on the
    transform: f itself can be nonzero at +-sqrt(a) while the transform
    picks up a square (x -+ sqrt(a))^2, e.g. x + 1 over F_5 with a = 4."""
    report = CheckReport()
    for f in _monic_polys(fld, n):
        if f.degree < 1 or not is_irreducible(f):
            continue
        t = recip.quadratic_transform(f, a)
        if not recip.eval_at_sqrt_pair(t, a).value:
            continue
        report.checked += 1
        parts = factorize(t, seed=seed).factors
        if len(parts) == 1 and parts[0][1] == 1:
            if parts[0][0].degree != 2 * n:
                report.fail(f"{f.to_string()}: irreducible transform of wrong degree")
            continue
        if len(parts) != 2 or any(m != 1 for _, m in parts) \
                or any(g.degree != n for g, _ in parts):
            report.fail(f"{f.to_string()}: unexpected split {[g.to_string() for g, _ in parts]}")
            continue
        g, h = parts[0][0], parts[1][0]
        if recip.a_reciprocal(g, a) != h:
            report.fail(f"{f.to_string()}: factors are not an a-reciprocal pair")
        if recip.is_a_self_reciprocal(g, a) or recip.is_a_self_reciprocal(h, a):
            report.fail(f"{f.to_string()}: a factor is self-reciprocal")
    return report


def check_parity_multiplicity(fld: Field, a: FieldElement, n: int, *,
                              seed: int) -> CheckReport:
    """All nontrivial a-srm polynomials of degree 2n with nonvanishing
    indicator: parity verdict matches the factor count with
    multiplicity."""
    report = CheckReport()
    for f in census.enumerate_srm(fld, a, n, "nontrivial"):
        verdict = recip.parity_indicator(f, a)
        if verdict.verdict is recip.Parity.NOT_APPLICABLE:
            continue
        report.checked += 1
        r = factor_count(f, with_multiplicity=True)
        if verdict.verdict is not recip._parity_of(r):
            report.fail(f"{f.to_string()}: verdict {verdict.verdict.value}, r = {r}")
    return report


def check_count_sum_identity(fld: Field, a: FieldElement, n: int, *,
                             seed: int) -> CheckReport:
    """q^n + delta equals the divisor sum of 2d * si(d) over d | n with
    n/d odd, with si from enumeration."""
    report = CheckReport(checked=1)
    degree = census.m_poly(fld, a, n).degree  # its guard first: q^n bounds every stream
    total = sum(2 * d * census.si_enumerated(fld, a, d) for d in census._master_divisors(n))
    lhs = fld.q ** n + census.delta(fld, a, n)
    if lhs != total:
        report.fail(f"q^n + delta = {lhs} but the divisor sum is {total}")
    if degree != total:
        report.fail(f"m_poly has degree {degree} but the divisor sum is {total}")
    return report


def check_product_formula(fld: Field, a: FieldElement, n: int, *,
                          seed: int) -> CheckReport:
    """The enumerated product of a-srim polynomials equals the Moebius
    quotient of master polynomials (exact division)."""
    report = CheckReport(checked=1)
    product = census.si_product(fld, a, n)
    report.note = f"product degree {product.degree}"
    return report


class Check(NamedTuple):
    run: Callable[..., CheckReport]  # (fld, a, n, *, seed)
    description: str


CHECKS = {
    "1": Check(check_reciprocal_product, "a-reciprocal is multiplicative over products"),
    "2": Check(check_odd_srm_roots,
               "odd-degree a-srm polynomials carry the forced root -+sqrt(a)"),
    "3": Check(check_quadratic_strip, "exact (x^2-a)^k stripping with parity matching the kind"),
    "4": Check(check_linear_strip,
               "even-exponent stripping of x -+ sqrt(a) from nontrivial a-srm"),
    "5": Check(check_master_divisibility, "x^2 - a divides the master polynomial iff delta = -1"),
    "6": Check(check_master_factorization,
               "master polynomial factors are exactly the allowed a-srim shapes"),
    "7": Check(check_count_formula, "closed-form count equals exhaustive enumeration"),
    "8": Check(check_parity_squarefree,
               "parity criterion vs distinct factor count (squarefree inputs)"),
    "9": Check(check_transform_irreducibles,
               "quadratic transform of an irreducible: irreducible or reciprocal pair"),
    "10": Check(check_parity_multiplicity, "parity criterion vs factor count with multiplicity"),
    "cor2": Check(check_count_sum_identity, "divisor-sum counting identity"),
    "eq2": Check(check_product_formula,
                 "enumerated a-srim product equals the Moebius master-polynomial quotient"),
}


def run_check(token: str, fld: Field, a: FieldElement, n: int = 2,
              seed: int = DEFAULT_SEED) -> CheckReport:
    if token not in CHECKS:
        raise DomainError(f"unknown check {token!r}; choose from {sorted(CHECKS)}")
    a = fld.element(a)
    if not a:
        raise DomainError("the parameter a must be nonzero")
    if n < 1:
        raise DomainError("n must be >= 1")
    report = CHECKS[token].run(fld, a, n, seed=seed)
    report.check = token
    return report
