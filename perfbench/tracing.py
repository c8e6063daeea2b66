"""The traced run: spans around gfrecip's public entry points, and
direct probes of the field layer.

``Tracer.install`` replaces each entry point, in every loaded gfrecip
module that holds it, with a wrapper that records a span (name, start,
end, parent, and the benchmark operation it belongs to) and adds its
duration to its parent's child time; a span's self time is its duration
minus its children's.  ``uninstall`` puts the originals back; ``src/``
is never edited.

Poly multiplication and division run millions of times per pass, so
their wrappers only add to per-size-class totals and keep no span.
FieldElement arithmetic is not wrapped at all (a degree-728 factorization
over F_9 makes about 1.3e8 coercions); ``field_probes`` times it by
calling it directly instead.
"""

from __future__ import annotations

import statistics
import sys
import time

import gfrecip

SMALL_DEGREE = 32  # poly.mul / poly.divmod split: operand degree < 32 is "small"

SPAN_ENTRY_POINTS = (
    ("poly", "pow_mod"), ("poly", "gcd"),
    ("factor", "factorize"), ("factor", "is_irreducible"),
    ("recip", "a_reciprocal"), ("recip", "is_a_self_reciprocal"), ("recip", "classify"),
    ("recip", "strip_x2_minus_a"), ("recip", "strip_linear_sqrt"), ("recip", "dickson"),
    ("recip", "quadratic_transform"), ("recip", "inverse_quadratic_transform"),
    ("recip", "eval_at_sqrt_pair"), ("recip", "parity_indicator"),
    ("recip", "discriminant_identity_check"),
    ("census", "m_poly"), ("census", "si_enumerated"),
    ("verify", "run_check"), ("cli", "main"),
)
GENERATORS = (("census", "enumerate_srm"),)

# probe tag -> (p, e); F_7 and F_25 have op tables, F_729 and F_8191 do not
PROBE_FIELDS = {"q7": (7, 1), "q25": (5, 2), "q729": (3, 6), "q8191": (8191, 1)}


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.counts = {}     # name -> count
        self.spans = []      # (id, parent id, request id, name, start, end)
        self._stack = [[0.0, 0]]  # per open span: [child time, span id]
        self._request = 0
        self._next_id = 1
        self._factorize_depth = 0
        self._undo = []

    # -- wrappers ------------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, self._next_id]
            self._next_id += 1
            if before is not None:
                before(args, kwargs)
            stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                spans.append((frame[1], parent[1], self._request, name, t0, t1))
                if after is not None:
                    after(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        # no span kept; a leaf's self time is its duration
        stack, perf, poly = self._stack, time.perf_counter, gfrecip.Poly
        small = self.stats.setdefault(f"{name}.small", [0, 0.0, 0.0])
        large = self.stats.setdefault(f"{name}.large", [0, 0.0, 0.0])

        def wrapper(self_, other):
            t0 = perf()
            result = fn(self_, other)
            dt = perf() - t0
            stack[-1][0] += dt
            degree = self_.degree
            if isinstance(other, poly) and other.degree > degree:
                degree = other.degree
            stat = small if degree < SMALL_DEGREE else large
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt
            return result

        return wrapper

    def _counted_generator(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that feed the ratios ---------------------------------------------------

    def _pow_mod_before(self, args, kwargs):
        base = args[0] if args else kwargs["base"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        if k == base.field.q:
            self._bump("poly.pow_mod.frobenius")
        elif self._factorize_depth:
            self._bump("factor.edf_attempts")

    def _factorize_before(self, args, kwargs):
        self._factorize_depth += 1

    def _factorize_after(self, args, kwargs, result):
        self._factorize_depth -= 1
        if result is not None:
            self._bump("factor.factors", len(result.factors))
            self._bump("factor.blocks", len({(m, g.degree) for g, m in result.factors}))

    def _bump(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    # -- install / uninstall --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gfrecip" or mod_name.startswith("gfrecip.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        hooks = {"pow_mod": (self._pow_mod_before, None),
                 "factorize": (self._factorize_before, self._factorize_after)}
        for module, func in SPAN_ENTRY_POINTS:
            original = getattr(sys.modules[f"gfrecip.{module}"], func)
            before, after = hooks.get(func, (None, None))
            self._replace_everywhere(
                original, self._span(f"{module}.{func}", original, before, after))
        for module, func in GENERATORS:
            original = getattr(sys.modules[f"gfrecip.{module}"], func)
            self._replace_everywhere(
                original, self._counted_generator(f"{module}.{func}.polys", original))
        poly = gfrecip.Poly
        mul = self._leaf("poly.mul", poly.__dict__["__mul__"])
        self._replace_method(poly, "__mul__", mul)
        self._replace_method(poly, "__rmul__", mul)
        self._replace_method(poly, "__divmod__", self._leaf("poly.divmod", poly.__dict__["__divmod__"]))
        self._replace_method(gfrecip.FieldElement, "sqrt",
                             self._counted("field.sqrt.calls", gfrecip.FieldElement.sqrt))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def request(self, label, fn, *args):
        """Run one benchmark operation as a root span; every span under
        it carries its id as the request id."""
        self._request = self._next_id
        try:
            return self._span(f"request {label}", fn)(*args)
        finally:
            self._request = 0

    # -- results ----------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures for one traced pass: name -> (value, unit)."""
        out = {}

        def stat(name, field):
            return self.stats.get(name, [0, 0.0, 0.0])[field]

        for op in ("mul", "divmod"):
            for size in ("small", "large"):
                out[f"poly.{op}.{size}.calls"] = (stat(f"poly.{op}.{size}", 0), "count")
                out[f"poly.{op}.{size}.self_s"] = (stat(f"poly.{op}.{size}", 2), "s")
        out["poly.pow_mod.calls"] = (stat("poly.pow_mod", 0), "count")
        out["poly.pow_mod.frobenius_calls"] = (self.counts.get("poly.pow_mod.frobenius", 0), "count")
        out["poly.pow_mod.total_s"] = (stat("poly.pow_mod", 1), "s")
        out["poly.gcd.calls"] = (stat("poly.gcd", 0), "count")
        out["poly.gcd.total_s"] = (stat("poly.gcd", 1), "s")
        out["factor.factorize.calls"] = (stat("factor.factorize", 0), "count")
        out["factor.factorize.self_s"] = (stat("factor.factorize", 2), "s")
        out["factor.is_irreducible.calls"] = (stat("factor.is_irreducible", 0), "count")
        out["factor.is_irreducible.total_s"] = (stat("factor.is_irreducible", 1), "s")
        attempts = self.counts.get("factor.edf_attempts", 0)
        splits = self.counts.get("factor.factors", 0) - self.counts.get("factor.blocks", 0)
        out["factor.edf_split_ratio"] = (splits / attempts if attempts else 0.0, "ratio")
        for func in ("classify", "parity_indicator", "inverse_quadratic_transform", "dickson",
                     "quadratic_transform", "a_reciprocal"):
            out[f"recip.{func}.calls"] = (stat(f"recip.{func}", 0), "count")
            out[f"recip.{func}.self_s"] = (stat(f"recip.{func}", 2), "s")
        out["census.enumerate_srm.polys"] = (self.counts.get("census.enumerate_srm.polys", 0), "count")
        out["census.si_enumerated.calls"] = (stat("census.si_enumerated", 0), "count")
        out["census.si_enumerated.total_s"] = (stat("census.si_enumerated", 1), "s")
        out["verify.run_check.calls"] = (stat("verify.run_check", 0), "count")
        out["verify.run_check.self_s"] = (stat("verify.run_check", 2), "s")
        out["cli.main.calls"] = (stat("cli.main", 0), "count")
        out["cli.main.self_s"] = (stat("cli.main", 2), "s")
        out["field.sqrt.calls"] = (self.counts.get("field.sqrt.calls", 0), "count")
        return out


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def field_probes(rng) -> dict:
    """Time FieldElement *, +, inverse(), sqrt() and Field construction
    by calling them directly: name -> (value, unit)."""
    out = {}
    for tag, (p, e) in PROBE_FIELDS.items():
        out[f"field.build_ms.{tag}"] = (1e3 * _median_time(lambda: gfrecip.Field(p, e), 5), "ms")
        fld = gfrecip.Field(p, e)

        def element():
            while True:
                x = fld.element([rng.randrange(p) for _ in range(e)])
                if x:
                    return x

        xs = [element() for _ in range(256)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))

        def mul():
            for x, y in pairs:
                x * y

        def add():
            for x, y in pairs:
                x + y

        def inv():
            for x in xs[:64]:
                x.inverse()

        squares = [x * x for x in xs[:4]]

        def sqrt():
            for s in squares:
                s.sqrt()

        out[f"field.mul_ns.{tag}"] = (1e9 * _median_time(mul, 5) / len(pairs), "ns")
        out[f"field.add_ns.{tag}"] = (1e9 * _median_time(add, 5) / len(pairs), "ns")
        out[f"field.inv_ns.{tag}"] = (1e9 * _median_time(inv, 3) / 64, "ns")
        out[f"field.sqrt_us.{tag}"] = (1e6 * _median_time(sqrt, 3) / len(squares), "us")
    return out
