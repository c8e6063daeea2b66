"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line into the terminal summary.  All checks are exact (finite-field or
integer arithmetic); the factorization oracle sits on the far side of
every comparison from the formula or criterion it referees.
"""

import itertools
import random
import time

import pytest

from gfrecip import (
    Field,
    Parity,
    Poly,
    SrmVerdict,
    a_reciprocal,
    carlitz_count,
    classify,
    delta,
    discriminant_identity_check,
    enumerate_srm,
    factor_count,
    factorize,
    h_poly,
    is_a_self_reciprocal,
    is_irreducible,
    is_squarefree,
    parity_indicator,
    quadratic_transform,
    si_enumerated,
    si_formula,
    si_product,
)
from gfrecip.verify import run_check

from conftest import acceptance_lines

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)

COUNT_GRID_FIELDS = (F3, F5, F7, F9)
SMALL_GRID_FIELDS = (F3, F5)


def grid_ns(field):
    return (1, 2, 3, 4) if field.q == 3 else (1, 2, 3)


def report(num, ok, detail):
    line = f"criterion {num:>4}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def si_table():
    """Enumerated and closed-form counts over the full counting grid,
    shared by the criteria that consume them."""
    start = time.time()
    table = {}
    for field in COUNT_GRID_FIELDS:
        for a in field.units():
            for n in grid_ns(field):
                table[(field.q, str(a), n)] = (
                    si_formula(field, a.is_square(), n),
                    si_enumerated(field, a, n),
                )
    table["elapsed"] = time.time() - start
    return table


def test_criterion_1_counting(si_table):
    elapsed = si_table["elapsed"]
    mismatches = [key for key, value in si_table.items()
                  if key != "elapsed" and value[0] != value[1]]
    rows = len(si_table) - 1
    spot_ok = (
        si_table[(5, "4", 1)] == (2, 2)
        and si_table[(5, "2", 1)] == (3, 3)
        and si_table[(5, "1", 2)] == (6, 6)
        and si_table[(5, "1", 3)] == (20, 20)
    )
    ok = not mismatches and spot_ok and elapsed < 120
    report(1, ok,
           f"si_formula == si_enumerated on {rows} grid rows, "
           f"spot values 2/3/6/20 confirmed, enumeration took {elapsed:.1f}s")


def test_criterion_2_divisor_sum_identity(si_table):
    bad = []
    rows = 0
    for field in COUNT_GRID_FIELDS:
        for a in field.units():
            for n in grid_ns(field):
                rows += 1
                total = sum(2 * d * si_table[(field.q, str(a), d)][1]
                            for d in range(1, n + 1)
                            if n % d == 0 and (n // d) % 2 == 1)
                if field.q ** n + delta(field, a, n) != total:
                    bad.append((field.q, str(a), n))
    op_ok = all(run_check("cor2", field, a, n).ok
                for field in SMALL_GRID_FIELDS
                for a in field.units()
                for n in (1, 2, 3))
    ok = not bad and op_ok
    report(2, ok, f"q^n + delta == sum 2d*si(d) on {rows} grid rows")


def test_criterion_3_product_formula():
    checked = 0
    for field in SMALL_GRID_FIELDS:
        for a in field.units():
            for n in (1, 2, 3):
                product = si_product(field, a, n)  # raises on any mismatch
                expected_degree = 2 * n * si_enumerated(field, a, n)
                assert product.degree == expected_degree
                assert product.is_monic or product == Poly.one(field)
                checked += 1
    report(3, True,
           f"enumerated a-srim product equals the Moebius master-polynomial "
           f"quotient in {checked} cases (exact divisions)")


def test_criterion_4_quadratic_divides_master():
    bad = []
    rows = 0
    for field in COUNT_GRID_FIELDS:
        for a in field.units():
            quadratic = Poly(field, (-a, field.zero, field.one))
            for n in grid_ns(field):
                rows += 1
                divides = not h_poly(field, a, n) % quadratic
                if divides != (delta(field, a, n) == -1):
                    bad.append((field.q, str(a), n))
    report(4, not bad, f"x^2 - a | x^(q^n+1) - a exactly when delta = -1, {rows} rows")


def test_criterion_5_master_factor_structure():
    checked = 0
    ok = True
    for field in SMALL_GRID_FIELDS:
        for a in field.units():
            for n in (1, 2, 3):
                checked += 1
                if not run_check("6", field, a, n).ok:
                    ok = False
    report(5, ok,
           f"all master-polynomial factors are nontrivial a-srim of degree 2d "
           f"(d | n, n/d odd) and every enumerated a-srim divides it, "
           f"{checked} (field, a, n) cells")


def _parity_sweep():
    for field in SMALL_GRID_FIELDS:
        for a in field.units():
            for n in (1, 2, 3):
                for f in enumerate_srm(field, a, n, "nontrivial"):
                    yield field, a, n, f


def test_criterion_6_parity_against_oracle():
    checked = squarefree_checked = skipped = 0
    bad = []
    for field, a, n, f in _parity_sweep():
        verdict = parity_indicator(f, a)
        if verdict.verdict is Parity.NOT_APPLICABLE:
            skipped += 1
            continue
        checked += 1
        expected = Parity.EVEN if factor_count(f, True) % 2 == 0 else Parity.ODD
        if verdict.verdict is not expected:
            bad.append(f.to_string())
        if is_squarefree(f):
            squarefree_checked += 1
            distinct = Parity.EVEN if factor_count(f, False) % 2 == 0 else Parity.ODD
            if verdict.verdict is not distinct:
                bad.append(f.to_string() + " (distinct)")
    report(6, not bad,
           f"parity verdict matches the oracle count with multiplicity on "
           f"{checked} polynomials ({squarefree_checked} squarefree vs distinct "
           f"count, {skipped} with vanishing indicator excluded)")


def test_criterion_7_discriminant_identity():
    checked = 0
    bad = []
    for field, a, n, f in _parity_sweep():
        checked += 1
        if not discriminant_identity_check(f, a):
            bad.append(f.to_string())
    report(7, not bad, f"D(f) == indicator * D(g)^2 on all {checked} nontrivial a-srm")


def test_criterion_8_transform_of_irreducibles():
    # the nonvanishing hypothesis A^2 - a B^2 != 0 belongs to the
    # degree-2n self-reciprocal polynomial (the transform): an input f
    # nonzero at +-sqrt(a) can still produce a transform with a square
    # (x -+ sqrt(a))^2 factor, e.g. x + 1 over F_5 with a = 4
    checked = vacuous = 0
    bad = []
    for field in SMALL_GRID_FIELDS:
        pool = list(field.elements())
        for n in (1, 2, 3):
            for lower in itertools.product(pool, repeat=n):
                f = Poly(field, lower + (field.one,))
                if not is_irreducible(f):
                    continue
                for a in field.units():
                    from gfrecip import eval_at_sqrt_pair
                    t = quadratic_transform(f, a)
                    if not eval_at_sqrt_pair(t, a).value:
                        vacuous += 1
                        continue
                    checked += 1
                    parts = factorize(t).factors
                    if len(parts) == 1 and parts[0][1] == 1:
                        if parts[0][0].degree != 2 * n:
                            bad.append((f.to_string(), str(a)))
                        continue
                    if (len(parts) != 2 or any(m != 1 for _, m in parts)
                            or any(g.degree != n for g, _ in parts)):
                        bad.append((f.to_string(), str(a)))
                        continue
                    g, h = parts[0][0], parts[1][0]
                    if a_reciprocal(g, a) != h or is_a_self_reciprocal(g, a) \
                            or is_a_self_reciprocal(h, a):
                        bad.append((f.to_string(), str(a)))
    report(8, not bad,
           f"transform of {checked} irreducible/parameter pairs is a-srim or an "
           f"a-reciprocal pair of irreducibles ({vacuous} excluded by the "
           f"nonvanishing hypothesis)")


def _odd_srm_brute_search(field, a, degree):
    """Every monic a-srm of odd degree, by full coefficient scan.

    The i = degree relation b_0^2 = a^degree eliminates constant terms
    wholesale; surviving constant terms get the complete scan of the
    remaining coefficients against every defining relation."""
    out = []
    pool = list(field.elements())
    target = a ** degree
    a_powers = [field.one]
    for _ in range(degree):
        a_powers.append(a_powers[-1] * a)
    for b0 in pool[1:] if pool[0] == field.zero else pool:
        if not b0 or b0 * b0 != target:
            continue
        for middle in itertools.product(pool, repeat=degree - 1):
            coeffs = (b0,) + middle + (field.one,)
            if all(coeffs[degree - i] * b0 == coeffs[i] * a_powers[i]
                   for i in range(degree + 1)):
                out.append(Poly(field, coeffs))
    return out


def test_criterion_9_structure_suites():
    battery_ok = True
    details = []

    # operator laws and stripping, via the named checks the CLI exposes
    for field in SMALL_GRID_FIELDS:
        for a in field.units():
            for token in ("1", "2", "3", "4"):
                rep = run_check(token, field, a, 2)
                if not rep.ok:
                    battery_ok = False
                    details.append(f"check {token} failed at q={field.q}, a={a}")

    # the product table of trivial/nontrivial kinds
    table = {("trivial", "trivial"): SrmVerdict.NONTRIVIAL,
             ("trivial", "nontrivial"): SrmVerdict.TRIVIAL,
             ("nontrivial", "trivial"): SrmVerdict.TRIVIAL,
             ("nontrivial", "nontrivial"): SrmVerdict.NONTRIVIAL}
    for field in SMALL_GRID_FIELDS:
        for a in field.units():
            for k1, k2 in table:
                for f in enumerate_srm(field, a, 1, k1):
                    for g in enumerate_srm(field, a, 1, k2):
                        if classify(f * g, a).verdict is not table[k1, k2]:
                            battery_ok = False
                            details.append(f"product table at q={field.q}")

    # exhaustive odd-degree search: the only odd-degree a-srim
    # polynomials anywhere on the grid are x - sqrt(a) and x + sqrt(a)
    searched = 0
    for field in (F3, F5, F7, F9):
        for a in field.units():
            root = a.sqrt()
            expected = set()
            if root is not None:
                expected = {Poly(field, (-root, field.one)).to_string(),
                            Poly(field, (root, field.one)).to_string()}
            found = set()
            for degree in (1, 3, 5):
                searched += field.q ** (degree - 1)
                for f in _odd_srm_brute_search(field, a, degree):
                    if is_irreducible(f):
                        found.add(f.to_string())
            if found != expected:
                battery_ok = False
                details.append(f"odd a-srim search at q={field.q}, a={a}: {found}")

    report(9, battery_ok,
           "operator laws, stripping, kind table, and the exhaustive "
           f"odd-degree search (degrees 1/3/5, q <= 9) all pass"
           + ("" if battery_ok else f": {details[:3]}"))


def test_criterion_10_classical_consistency():
    bad = []
    for q, field in ((3, F3), (5, F5), (7, F7)):
        one = field.one
        for n in (1, 2, 3, 4):
            classical = carlitz_count(q, n)
            if si_formula(field, True, n) != classical:
                bad.append((q, n, "formula"))
            if si_enumerated(field, one, n) != classical:
                bad.append((q, n, "enumerated"))
    report(10, not bad,
           "a = 1 counts match the classical self-reciprocal counts for "
           "q in {3,5,7}, n in {1..4}")


def test_criterion_11_oracle_self_consistency():
    rng = random.Random(20250808)
    fields = (F3, F5, F9)
    total = 10_000
    bad = 0
    for i in range(total):
        field = fields[i % 3]
        pool = list(field.elements())
        degree = rng.randrange(1, 11)
        coeffs = [pool[rng.randrange(field.q)] for _ in range(degree)]
        coeffs.append(pool[rng.randrange(1, field.q)])
        f = Poly(field, coeffs)
        result = factorize(f, seed=1729)
        if result != factorize(f, seed=1729):
            bad += 1
            continue
        if result.expand() != f:
            bad += 1
            continue
        if sum(m * g.degree for g, m in result.factors) != f.degree:
            bad += 1
    report(11, bad == 0,
           f"reconstruction, determinism and degree bookkeeping on {total} "
           f"random polynomials (degree <= 10, q in {{3,5,9}})")
