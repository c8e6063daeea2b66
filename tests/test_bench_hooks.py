"""The names perfbench's traced run hooks into must exist in gfrecip.

perfbench/tracing.py wraps gfrecip functions and Poly methods by name
when ``perfbench/run.py --trace 1`` runs; a rename or a deletion in
src/ breaks that run without failing anything else.  The tuples are read
from the tracer's source, which is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import gfrecip

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_tuple(name):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


def test_span_entry_points_resolve():
    entries = _tracer_tuple("SPAN_ENTRY_POINTS")
    assert entries
    for module, func in entries:
        assert callable(getattr(importlib.import_module(f"gfrecip.{module}"), func)), \
            (module, func)


def test_generators_resolve():
    entries = _tracer_tuple("GENERATORS")
    assert entries
    for module, func in entries:
        fn = getattr(importlib.import_module(f"gfrecip.{module}"), func)
        assert inspect.isgeneratorfunction(fn), (module, func)


def test_wrapped_methods_exist():
    for attr in ("__mul__", "__rmul__", "__divmod__"):
        assert attr in gfrecip.Poly.__dict__, attr
    assert callable(gfrecip.FieldElement.sqrt)


def test_frobenius_steps_call_pow_mod(monkeypatch):
    # the tracer counts poly.pow_mod.frobenius_calls from pow_mod calls
    # with k == q, so the distinct-degree walk must step through that name
    ks = []
    step = gfrecip.factor.pow_mod

    def counted(base, k, modulus):
        ks.append(k)
        return step(base, k, modulus)

    monkeypatch.setattr(gfrecip.factor, "pow_mod", counted)
    fld = gfrecip.Field(5)
    gfrecip.factorize(gfrecip.Poly(fld, (1, 0, 4, 0, 1)))
    assert fld.q in ks


def test_factorize_calls_gcd(monkeypatch):
    # the tracer counts poly.gcd.calls and times poly.gcd.total_s through
    # the name factor.gcd: the walk's and the squarefree gcds, packed or not,
    # go through it; the equal-degree draws take poly._power_gcd and do not
    calls = []
    step = gfrecip.factor.gcd

    def counted(f, g):
        calls.append(max(f.degree, g.degree))
        return step(f, g)

    monkeypatch.setattr(gfrecip.factor, "gcd", counted)
    fld = gfrecip.Field(3)
    f = gfrecip.m_poly(fld, 1, 4)
    assert gfrecip.factorize(f).expand() == f
    assert calls and max(calls) >= gfrecip.poly.GCD_PACKED_MIN


def test_factor_count_accepts_seed():
    f = gfrecip.Poly(gfrecip.Field(5), (1, 0, 4, 0, 1))
    assert gfrecip.factor_count(f, seed=7) == 2
