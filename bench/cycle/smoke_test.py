#!/usr/bin/env python3
"""Keeps the frame benchmark from rotting (ctest label `bench`).

Runs every workload for two timed frames, untraced and traced, through the
same code path as run.py, and checks that
  * each run names every metric BENCHMARK.json lists for its mode,
  * each run passes its correctness checks,
  * the tail-percentile helper keeps at least ten samples beyond the tail,
  * layers.json maps every per-layer metric to its layer, the end-to-end
    metrics it should move and the workload it moves them on.

  python3 bench/cycle/smoke_test.py --binary .bench_build/release/bench/bench_cycle
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def check_tail_rule(errors):
    for n in range(1, 1001):
        for target in (50, 75, 95, 99):
            p = run.tail_percentile(n, target)
            beyond = n * (1.0 - p / 100.0)
            if p > target or (p > 50 and beyond < 10.0 - 1e-9):
                errors.append(f"tail_percentile({n}, {target}) = {p} leaves "
                              f"{beyond:.2f} samples beyond")
    if run.tail_percentile(300, 95) != 95 or run.tail_percentile(10, 95) != 50:
        errors.append("tail_percentile misses the documented examples")


def check_layer_map(bench, errors):
    """layers.json maps every per-layer metric, and only those, to its layer,
    the end-to-end metrics it should move, and the workload it moves them
    on."""
    with open(Path(__file__).resolve().parent / "layers.json") as f:
        entries = json.load(f)["metrics"]
    end_to_end = {e["name"] for e in bench["end_to_end"]}
    workloads = set(run.WORKLOADS) | {"all"}
    mapped = [e["name"] for e in entries]
    if sorted(mapped) != sorted(e["name"] for e in bench["per_layer"]):
        errors.append("layers.json and BENCHMARK.json per_layer differ")
    for e in entries:
        if (not e["layer"] or not set(e["moves"]) <= end_to_end
                or e["workload"] not in workloads
                or e.get("no_change_on", "all") not in workloads):
            errors.append(f"layers.json: bad entry {e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    args = ap.parse_args()
    bench = run.catalogue()
    errors = []
    check_tail_rule(errors)
    check_layer_map(bench, errors)
    for workload in run.WORKLOADS:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rec = run.run_workload(workload, 1, 0.0, trace, frames=2,
                                   setups=1, binary=Path(args.binary))
            label = f"{workload} trace={trace}"
            want = {e["name"] for e in spec}
            have = set(rec["metrics"])
            if want != have:
                errors.append(f"{label}: missing {sorted(want - have)}, "
                              f"unexpected {sorted(have - want)}")
            if not rec["correct"]:
                errors.append(f"{label}: correctness failed: "
                              f"{rec['problems'][:5]}")
            print(f"{label}: {len(have)} metrics, {rec['attempted']} frames,"
                  f" correct={rec['correct']}")
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
