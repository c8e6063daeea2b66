"""The benchmark's workloads.

A workload turns a seed into a list of operations, all built before any
timing; runs one operation through gfrecip's public API or through
``gfrecip.cli.main``; reduces the output to plain data; and checks that
data with reference.py rather than with the code under test wherever it
can.  Calls go through module attributes (``gfrecip.factorize``) so that
the traced run sees the entry points it wraps.

Every pass over a workload's operations is identical except for the
factorization seed, which changes from pass to pass so that a run's
median averages over the equal-degree splitter's random draws.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import gfrecip
import gfrecip.cli
import gfrecip.verify

from reference import RefField, master_degrees, srim_count


class Op:
    """One operation; ``args`` and ``expect`` are workload specific."""

    __slots__ = ("label", "args", "expect")

    def __init__(self, label, args, expect=None):
        self.label = label
        self.args = args
        self.expect = expect


def _rng(*parts) -> random.Random:
    # str seeds hash through SHA-512, so streams are stable across processes
    return random.Random(":".join(str(part) for part in parts))


def _ref(fld) -> RefField:
    return RefField(fld.p, fld.e, fld.modulus)


def _spec(p: int, e: int) -> str:
    return str(p) if e == 1 else f"{p}^{e}"


def _coords(poly) -> tuple:
    return tuple(c.coords for c in poly.coeffs)


class Oracle:
    """factorize(m_poly) over the given (p, e, n) cases; one op per case."""

    modules = ("gfrecip",)  # what a user of this workload imports

    def __init__(self, name, cases):
        self.name = name
        self.cases = cases
        self.fields = tuple(dict.fromkeys((p, e) for p, e, _ in cases))

    def build(self, seed):
        rng = _rng(self.name, seed)
        ops = []
        for p, e, n in self.cases:
            fld = gfrecip.Field(p, e)
            ref = _ref(fld)
            a = ref.random_element(rng, nonzero=True)
            m = ref.master(a, n)
            label = f"factorize F_{ref.q} n={n}"
            ops.append(Op(label, (gfrecip.Poly(fld, m), f"{self.name}:{seed}:{label}"),
                          (ref, a, n, m)))
        return ops

    def run(self, op, pass_index):
        poly, stream = op.args
        return gfrecip.factorize(poly, seed=_rng(stream, pass_index).randrange(2 ** 32))

    def plain(self, op, out):
        return (out.unit.coords, tuple((_coords(g), m) for g, m in out.factors))

    def units(self, op, plain):
        return 1

    def check(self, op, plain):
        ref, a, n, m = op.expect
        unit, factors = plain
        if unit != ref.one:
            return f"unit {unit} is not 1"
        allowed = {2 * d for d in master_degrees(n)}
        for coeffs, mult in factors:
            if mult != 1 or coeffs[-1] != ref.one or len(coeffs) - 1 not in allowed:
                return f"factor of degree {len(coeffs) - 1} with multiplicity {mult}"
        expected = sum(srim_count(ref.q, ref.is_square(a), d) for d in master_degrees(n))
        if len(factors) != expected:
            return f"{len(factors)} factors, expected {expected}"
        product = [ref.one]
        for coeffs, _ in factors:
            product = ref.poly_mul(product, list(coeffs))
        if product != m:
            return "factors do not multiply back to m_poly"
        return None

    def untimed_checks(self, ops, seed):
        return [], 0


class Sweep:
    """census_row over every (field, a, n <= nmax) and named verify checks."""

    name = "sweep-small"
    modules = ("gfrecip", "gfrecip.verify")

    def __init__(self, census, checks):
        self.census = census  # (p, e, nmax)
        self.checks = checks  # (token, (p, e), n)
        self.fields = tuple(dict.fromkeys(
            [(p, e) for p, e, _ in census] + [fe for _, fe, _ in checks]))

    def build(self, seed):
        rng = _rng(self.name, seed)
        ops = []
        for p, e, nmax in self.census:
            fld = gfrecip.Field(p, e)
            ref = _ref(fld)
            for a in fld.units():
                for n in range(1, nmax + 1):
                    ops.append(Op(f"census F_{fld.q} a={a} n={n}", ("census", fld, a, n),
                                  (ref, a.coords, n)))
        for token, (p, e), n in self.checks:
            fld = gfrecip.Field(p, e)
            a = fld.element(_ref(fld).random_element(rng, nonzero=True))
            ops.append(Op(f"check {token} F_{fld.q} a={a} n={n}",
                          ("check", fld, a, n, token)))
        return ops

    def run(self, op, pass_index):
        kind, fld, a, n, *token = op.args
        if kind == "census":
            return gfrecip.census_row(fld, a, n)
        return gfrecip.verify.run_check(token[0], fld, a, n)

    def plain(self, op, out):
        if op.args[0] == "census":
            return (out.q, out.a.coords, out.n, out.delta, out.si_formula,
                    out.si_enumerated, out.agreement)
        return (out.check, out.ok, out.checked, tuple(out.failures), out.note)

    def units(self, op, plain):
        # polynomials examined: the q^n enumerated a-srm, or the check's count
        return plain[0] ** plain[2] if op.args[0] == "census" else plain[2]

    def check(self, op, plain):
        if op.args[0] == "check":
            _, ok, _, failures, _ = plain
            return None if ok and not failures else f"check failed: {list(failures)[:3]}"
        ref, a, n = op.expect
        q, _, _, delta, formula, enumerated, agreement = plain
        square = ref.is_square(a)
        expected = srim_count(q, square, n)
        if not agreement or formula != expected or enumerated != expected:
            return f"counts {formula}/{enumerated}, expected {expected}"
        if delta != (-1 if square or n % 2 == 0 else 1):
            return f"delta {delta} is wrong"
        return None

    def untimed_checks(self, ops, seed):
        return [], 0


def _odd_srm(ref, rng, n):
    """(x + r) times the quadratic transform of a random monic g of
    degree n: an a-srm of odd degree 2n + 1 for a = r^2 over a prime
    field.  Returns a, f and the classify verdict: f(0) = r^(2n+1), so
    "plus" when r is the smaller of the two roots, the canonical one."""
    r = ref.random_element(rng, nonzero=True)
    a = ref.mul(r, r)
    g = [ref.random_element(rng) for _ in range(n)] + [ref.one]
    f = ref.poly_mul([r, ref.one], ref.quadratic_transform(g, a))
    return a, f, "odd_srm_plus" if r[0] <= ref.p - r[0] else "odd_srm_minus"


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gfrecip.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliParity:
    """In-process cli.main requests on seeded a-srm polynomials.

    Per field and half-degree n: a random monic g of degree n and its
    quadratic transform f, a nontrivial a-srm of degree 2n; then one
    parity, classify and recip request on f, transform on g and
    invtransform on f.  On the fields in ``odd_fields`` also, per n, a
    classify request on an a-srm of degree 2n + 1 (see _odd_srm), which
    takes a square root of a.  The requests are shuffled once per seed.
    """

    name = "cli-parity"
    modules = ("gfrecip", "gfrecip.cli")
    commands = ("parity", "classify", "recip", "transform", "invtransform")

    def __init__(self, fields, half_degrees, odd_fields, probe_half_degrees):
        self.fields = fields
        self.half_degrees = half_degrees
        self.odd_fields = odd_fields
        self.probe_half_degrees = probe_half_degrees

    def build(self, seed):
        rng = _rng(self.name, seed)
        ops = []
        for p, e in self.fields:
            fld = gfrecip.Field(p, e)
            ref = _ref(fld)
            a = ref.random_element(rng, nonzero=True)
            for n in self.half_degrees:
                g = [ref.random_element(rng) for _ in range(n)] + [ref.one]
                f = ref.quadratic_transform(g, a)
                g_text, f_text = ref.poly_format(g), ref.poly_format(f)
                expect = {"parity": ref.parity_verdict(f, a),
                          "classify": ("nontrivial", n),
                          "recip": f_text, "transform": f_text, "invtransform": g_text}
                for cmd in self.commands:
                    argv = (cmd, "--field", _spec(p, e), "--a", ref.format(a),
                            "--poly", g_text if cmd == "transform" else f_text)
                    ops.append(Op(f"{cmd} F_{ref.q} deg={2 * n}", argv,
                                  (cmd, expect[cmd], fld, f)))
            if (p, e) in self.odd_fields:
                for n in self.half_degrees:
                    odd_a, f, verdict = _odd_srm(ref, rng, n)
                    argv = ("classify", "--field", _spec(p, e), "--a", ref.format(odd_a),
                            "--poly", ref.poly_format(f))
                    ops.append(Op(f"classify F_{ref.q} deg={2 * n + 1}", argv,
                                  ("classify", (verdict, None), fld, f)))
        rng.shuffle(ops)
        return ops

    def run(self, op, pass_index):
        return _cli(list(op.args))

    def plain(self, op, out):
        return out

    def units(self, op, plain):
        return 1

    def check(self, op, plain):
        code, stdout, stderr = plain
        if code != 0:
            return f"exit {code}: {stderr.strip()[:200]}"
        cmd, expected, _, _ = op.expect
        payload = json.loads(stdout)["payload"]
        if cmd == "parity":
            got = payload["verdict"]
        elif cmd == "classify":
            got = (payload["verdict"], payload["half_degree"])
        else:
            got = payload["result"]
        return None if got == expected else f"got {got!r}, expected {expected!r}"

    def untimed_checks(self, ops, seed):
        """Checks outside the timed passes: (failures, exits at the
        square-root scan limit).

        On the two smallest applicable parity requests per field, the
        verdict must agree with the oracle's factor count.

        Then odd-degree classify requests over F_10007 (see _odd_srm).
        These reach the square-root scan, which refuses fields above its
        limit with exit 3; such exits are counted, and any outcome other
        than that exit or the right verdict fails."""
        failures = []
        for p, e in self.fields:
            sample = sorted((op for op in ops if op.expect[0] == "parity"
                             and (op.expect[2].p, op.expect[2].e) == (p, e)
                             and op.expect[1] != "not_applicable"),
                            key=lambda op: len(op.expect[3]))[:2]
            for op in sample:
                _, verdict, fld, f = op.expect
                count = gfrecip.factor_count(gfrecip.Poly(fld, f), seed=seed)
                if verdict != ("even" if count % 2 == 0 else "odd"):
                    failures.append(f"{op.label}: verdict {verdict}, {count} factors")

        rng = _rng(self.name, "probe", seed)
        p = 10007
        ref = RefField(p, 1, (0, 1))
        limit_exits = 0
        for n in self.probe_half_degrees:
            a, f, verdict = _odd_srm(ref, rng, n)
            code, stdout, stderr = _cli(["classify", "--field", str(p), "--a", ref.format(a),
                                         "--poly", ref.poly_format(f)])
            if code == 3 and "square-root search" in stderr:
                limit_exits += 1
            elif code != 0 or json.loads(stdout)["payload"]["verdict"] != verdict:
                failures.append(f"classify F_10007 degree {2 * n + 1}: exit {code}")
        return failures, limit_exits


def make(name: str, tiny: bool = False):
    """The named workload; ``tiny`` gives a seconds-long variant for the
    self-test."""
    if name == "oracle-prime":
        return Oracle(name, ((5, 1, 2), (7, 1, 1)) if tiny else
                      ((5, 1, 3), (13, 1, 2), (3, 1, 5), (257, 1, 1), (7, 1, 3)))
    if name == "oracle-ext":
        return Oracle(name, ((3, 2, 1), (5, 2, 1)) if tiny else
                      ((3, 2, 2), (3, 4, 1), (7, 2, 1), (5, 3, 1), (13, 2, 1)))
    if name == "sweep-small":
        if tiny:
            return Sweep(((3, 1, 2), (5, 1, 2)),
                         (("10", (5, 1), 2), ("9", (5, 1), 2), ("1", (5, 1), 1)))
        # F_9 stops at n = 2: its eight n = 3 rows took half of a 9 s pass,
        # too long for several passes a run; checks 10 and 9 cover F_9 at n = 3
        return Sweep(((3, 1, 3), (5, 1, 3), (7, 1, 3), (3, 2, 2)),
                     tuple((token, fe, 3) for token in ("10", "9")
                           for fe in ((5, 1), (7, 1), (3, 2))) + (("1", (7, 1), 2),))
    if name == "cli-parity":
        if tiny:
            return CliParity(((7, 1), (17, 2)), (2, 3), ((7, 1),), (2,))
        # F_8191 is the largest field here under the square-root scan limit
        return CliParity(((7, 1), (8191, 1), (10007, 1), (17, 2), (3, 6)),
                         (4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 60), ((8191, 1),),
                         (4, 8, 12, 16, 20))
    raise KeyError(name)


NAMES = ("oracle-prime", "oracle-ext", "sweep-small", "cli-parity")
