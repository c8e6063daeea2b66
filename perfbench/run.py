"""gfrecip benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gfrecip checkout; it imports ./src.  The seed
fixes every input (see workloads.py), and all inputs are built before
the timed section.  The timed section repeats passes over the
workload's operations while another pass still fits in --seconds (at
least one pass), then checks every output.

--trace 0 reports the end-to-end metrics, measured untraced; times are
given at a reference host speed (see calibrate.py), the raw times are
in the metadata.  --trace 1 runs untraced and traced passes of the
same inputs in alternating pairs and reports the per-layer metrics from
the first traced pass (see tracing.py), with the tracing overhead as
the median over the pairs of the traced minus the untraced pass time.

The last line of stdout is the result object; the line before it holds
the run's metadata (versions, seed, sample counts, failures).  Both are
also written, with the traced run's spans, under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15

# The child times the reference kernel before and after its set-up.
_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, {here!r})
import calibrate
sys.path.remove({here!r})
calibrate.kernel()
before = [calibrate.sample() for _ in range(3)]
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
{imports}
for p, e in {fields!r}:
    gfrecip.Field(p, e)
elapsed = time.perf_counter() - t0
print(elapsed, *before, *(calibrate.sample() for _ in range(3)))
"""


class Failed:
    """An operation that raised instead of returning; never equal to an output."""

    def __init__(self, message):
        self.message = message


class Pass:
    """One pass: per-operation latencies and outputs; ``wall`` is the sum
    of the latencies, ``speed`` the factor that takes a raw time to the
    reference speed (1.0 for a pass run without calibration)."""

    def __init__(self, latencies, outputs, kernel_times):
        self.latencies = latencies
        self.outputs = outputs
        self.wall = sum(latencies)
        self.speed = calibrate.speed(kernel_times) if kernel_times else 1.0


def run_pass(workload, ops, index, tracer=None, calibrated=False) -> Pass:
    """Run every operation once.  When calibrated, the reference kernel
    is sampled before the first operation, after each INTERVAL_S of
    operation time and after the last, outside the latencies."""
    perf = time.perf_counter
    outputs, latencies, kernel_times = [], [], []
    since = calibrate.INTERVAL_S
    for op in ops:
        if calibrated and since >= calibrate.INTERVAL_S:
            kernel_times.append(calibrate.sample())
            since = 0.0
        t0 = perf()
        try:
            if tracer is None:
                out = workload.run(op, index)
            else:
                out = tracer.request(op.label, workload.run, op, index)
        except (Exception, SystemExit) as exc:  # a failed operation, counted below
            out = Failed(f"{type(exc).__name__}: {exc}")
        latencies.append(perf() - t0)
        since += latencies[-1]
        outputs.append(out)
    if calibrated:
        kernel_times.append(calibrate.sample())
    return Pass(latencies, outputs, kernel_times)


def timed_passes(workload, ops, seconds) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, ops, len(passes), calibrated=True))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def check_passes(workload, ops, passes):
    """Plain outputs of the first pass, units done per pass, and the
    failures (pass, label, message).  A later pass's output that equals
    the first pass's shares its verdict; any other is checked afresh."""
    first, verdicts, units, failures = None, [], [], []
    for k, p in enumerate(passes):
        plains, done = [], 0
        for i, (op, out) in enumerate(zip(ops, p.outputs)):
            if isinstance(out, Failed):
                plain, message = out, out.message
            else:
                plain = workload.plain(op, out)
                if k and plain == first[i]:
                    message = verdicts[i]
                else:
                    message = workload.check(op, plain)
                if message is None:
                    done += workload.units(op, plain)
            if k == 0:
                verdicts.append(message)
            if message is not None:
                failures.append((k, op.label, message))
            plains.append(plain)
        if k == 0:
            first = plains
        units.append(done)
    return first, units, failures


def tail(latencies):
    """The highest percentile with at least ten samples above it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_times(workload) -> list[tuple[float, float]]:
    """Import gfrecip and build the workload's fields, each time in a
    fresh interpreter; returns, per child, the time it measured and the
    speed factor of the kernel times it took around it."""
    imports = "\n".join(f"import {name}" for name in workload.modules)
    code = _SETUP_CHILD.format(src=str(SRC), here=str(HERE), imports=imports,
                               fields=list(workload.fields))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, *kernel_times = map(float, done.stdout.split())
        times.append((elapsed, calibrate.speed(kernel_times)))
    return times


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def end_to_end(passes, units, setup, rss_kb):
    """The end-to-end metrics at the reference speed, name -> (value,
    unit), and their sample counts.  Each pass and each set-up child is
    scaled by its own speed factor.  The latency percentiles are over
    each operation's median latency across the passes, so one slow
    moment moves one sample of one operation only."""
    op_medians = [statistics.median(lat * p.speed for p, lat in zip(passes, lats))
                  for lats in zip(*(p.latencies for p in passes))]
    metrics = {
        "setup_s": (statistics.median(t * speed for t, speed in setup), "s"),
        "wall_s": (statistics.median(p.wall * p.speed for p in passes), "s"),
        "ops_per_s": (statistics.median(u / (p.wall * p.speed) for p, u in zip(passes, units)),
                      "1/s"),
        "op_p50_ms": (1e3 * statistics.median(op_medians), "ms"),
        "op_tail_ms": (1e3 * tail(op_medians)[0], "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    n = len(op_medians)
    samples = {
        "setup_s": {"runs": len(setup)},
        "wall_s": {"passes": len(passes)},
        "ops_per_s": {"passes": len(passes), "units": sum(units)},
        "op_p50_ms": {"ops": n, "passes": len(passes)},
        "op_tail_ms": {"ops": n, "passes": len(passes), "percentile": tail(op_medians)[1]},
        "peak_rss_mb": {"runs": 1},
    }
    return metrics, samples


def traced(workload, ops, seed, seconds):
    """Field probes, then untraced and traced passes of the same inputs
    in alternating pairs, while another pair fits in ``seconds`` (at
    least two pairs).  Returns the passes; the per-layer metrics of the
    first traced pass, with the overhead (median over the pairs of
    traced minus untraced time, both at the reference speed, so that
    host drift is not counted); their sample counts; and that pass's
    spans."""
    import gfrecip  # importable only once main has put src/ on the path
    import tracing

    metrics = tracing.field_probes(random.Random(f"probes:{seed}"))
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        for p, e in workload.fields:
            gfrecip.Field(p, e)
        builds.append(time.perf_counter() - t0)
    metrics["field.build_ms"] = (1e3 * statistics.median(builds), "ms")
    pairs, first = [], None
    start = time.perf_counter()
    while True:
        index = len(pairs)
        untraced = run_pass(workload, ops, index, calibrated=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_pass = run_pass(workload, ops, index, tracer, calibrated=True)
        finally:
            tracer.uninstall()
        first = first or tracer
        pairs.append((untraced, traced_pass))
        elapsed = time.perf_counter() - start
        if len(pairs) >= 2 and elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break
    metrics.update(first.metrics())
    untraced_s = [u.wall * u.speed for u, _ in pairs]
    traced_s = [t.wall * t.speed for _, t in pairs]
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced_s), "s")
    metrics["trace.wall_s"] = (statistics.median(traced_s), "s")
    metrics["trace.overhead_s"] = (statistics.median(t - u for u, t in zip(untraced_s, traced_s)), "s")
    metrics["trace.spans"] = (len(first.spans), "count")
    base = min((span[4] for span in first.spans), default=0.0)
    spans = [(sid, parent, req, name, round(t0 - base, 9), round(t1 - base, 9))
             for sid, parent, req, name, t0, t1 in first.spans]
    samples = {"per_layer": {"traced_passes": 1},
               "trace.overhead_s": {"pairs": len(pairs)}}
    return [p for pair in pairs for p in pair], metrics, samples, spans


def measure(workload, seed, seconds, trace):
    """Build the workload's inputs from the seed, run them, check every
    output; returns (result, meta, spans), spans None when untraced."""
    ops = workload.build(seed)
    meta = {
        "workload": workload.name, "seed": seed, "trace": trace, "seconds": seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "ops_per_pass": len(ops),
        "input_digest": digest([(op.label, op.args) for op in ops]),
    }
    if trace:
        passes, metrics, meta["samples"], spans = traced(workload, ops, seed, seconds)
    else:
        setup = setup_times(workload)
        passes = timed_passes(workload, ops, seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spans = None
    first, units, failures = check_passes(workload, ops, passes)
    if not trace:
        metrics, meta["samples"] = end_to_end(passes, units, setup, rss_kb)
        meta["setup_raw_s"] = [t for t, _ in setup]
        meta["setup_speed"] = [speed for _, speed in setup]
    meta["pass_walls_s"] = [p.wall for p in passes]
    meta["speed"] = [p.speed for p in passes]
    meta["output_digest"] = digest(first)
    extra, limit_exits = workload.untimed_checks(ops, seed)
    meta["sqrt_scan_limit_exits"] = limit_exits
    if trace:
        metrics["cli.sqrt_scan_limit_exits"] = (limit_exits, "count")
    meta["failures"] = [f"pass {k} {label}: {message}"
                        for k, label, message in failures[:10]] + extra[:10]
    result = {
        "correct": not failures and not extra,
        "attempted": sum(len(p.outputs) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    return result, meta, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gfrecip" / "__init__.py").is_file():
        print(f"error: no gfrecip sources at {SRC}; run from a gfrecip checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gfrecip

    if Path(gfrecip.__file__).resolve().parent != (SRC / "gfrecip").resolve():
        print(f"error: imported gfrecip from {gfrecip.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    result, meta, spans = measure(workloads.make(args.workload), args.seed,
                                  args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"columns": ["id", "parent", "request", "name", "start_s", "end_s"],
             "spans": spans}, separators=(",", ":")))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
