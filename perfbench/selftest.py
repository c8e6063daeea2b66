"""Self-test of the benchmark on tiny inputs; takes about ten seconds.

    python3 perfbench/selftest.py

For every workload, on its tiny variant: one seed builds identical
inputs twice and another seed different ones; two one-pass runs of the
same seed give the same digest of the outputs, and every output check
passes.  The metric names and units the runner emits, untraced
and traced, are exactly those BENCHMARK.json lists, and layer_map.json
covers every per-layer metric.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    layer_map = json.loads((HERE / "layer_map.json").read_text())["map"]
    problems = []
    if {w["name"] for w in bench["workloads"]} != set(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    mapped = {name for row in layer_map for name in row["metrics"]}
    if mapped != set(wanted[1]):
        problems.append(f"layer_map.json differs from per_layer: {sorted(mapped ^ set(wanted[1]))}")

    for name in workloads.NAMES:
        workload = workloads.make(name, tiny=True)
        inputs = [run.digest([(op.label, op.args) for op in workload.build(seed)])
                  for seed in (7, 7, 8)]
        if inputs[0] != inputs[1]:
            problems.append(f"{name}: seed 7 built different inputs twice")
        if inputs[0] == inputs[2]:
            problems.append(f"{name}: seeds 7 and 8 built the same inputs")
        digests = []
        for trace in (0, 0, 1):
            result, meta, _ = run.measure(workload, 7, 0, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: {meta['failures']}")
            units = {metric: m["unit"] for metric, m in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units.items()) ^ set(wanted[trace].items()))}")
            digests.append(meta["output_digest"])
        if len(set(digests)) != 1:
            problems.append(f"{name}: output digests differ across runs: {digests}")
        print(f"{name}: inputs {inputs[0]}, outputs {digests[0]}", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
