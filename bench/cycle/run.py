#!/usr/bin/env python3
"""Frame benchmark for the GridSE estimation cycle.

Builds bench_cycle inside the repository's own build with the `release`
preset (Release, debug-sync off, observability on), runs workloads in their
own processes, checks that every frame's estimate is correct, and prints
every metric by name with its unit. Metric names, units and bounds come from
BENCHMARK.json at the repository root; README.md next to this file explains
the workloads and the metrics.

  # one workload; the last line of stdout is the JSON result
  python3 bench/cycle/run.py --workload tier10k_tracking --seed 1 \
      --seconds 20 --trace 0
  # the traced run: per-layer metrics instead of end-to-end ones
  python3 bench/cycle/run.py --workload tier10k_replay --seed 1 --trace 1
  # every workload four times, saved as a set
  python3 bench/cycle/run.py --seed 1 --repeat 4 --out set-a.json
  # two sets side by side, one row per workload
  python3 bench/cycle/run.py --compare set-a.json set-b.json

Exit status: 0 on success; 1 when a correctness check fails, a compared
metric is out of bound, or a full set at the default run length exceeds its
wall-time budget; 2 on bad usage or when the program cannot be built.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_build"
BUILD = OUT / "release"

WORKLOADS = ["ieee118_pmu_medici", "tier10k_tracking", "tier10k_replay",
             "tier30k_tracking"]
# Only this workload opens TCP sockets; see hygiene().
TCP_WORKLOAD = "ieee118_pmu_medici"
TIME_WAIT_LIMIT = 10000
TIME_WAIT_MAX_WAIT_S = 60
# A run must end this long after its build, TIME_WAIT wait included.
RUN_DEADLINE_S = 170
# Wall-time budgets of one run (its processes, not the TIME_WAIT wait) and of
# a set of all four; a set that exceeds either fails.
RUN_BUDGET_S = 35
SET_BUDGET_S = 150
MAX_VM_ERROR = 0.05
# Fewest frames a latency statistic is taken over; also the number of
# samples the tail percentile must leave beyond it.
MIN_SAMPLES = 10

# Per-layer metrics that are counts: taken over the workload's first
# count_window traced frames, so they repeat exactly for a fixed seed.
COUNT_MEANS = ["grid.measurements_per_frame", "estimation.gn_iters_per_frame",
               "sparse.pcg_iters_per_frame", "solver.plan_misses_per_frame",
               "exchange.bytes_per_frame", "exchange.messages_per_frame",
               "medici.relay_bytes_per_frame",
               "transport.tcp_sockets_per_frame"]
COUNT_SUMS = ["topology.events", "topology.masked_measurements",
              "topology.anchors_added", "topology.repartitions",
              "mapping.redistributed_subsystems"]
# Per-layer times and ratios: mean over every traced frame, so the layer
# means add up to the mean frame.
FRAME_MEANS = ["grid.truth_ms", "grid.measure_ms", "topology.apply_ms",
               "topology.repartition_ms", "graph.partition_ms",
               "mapping.map_ms", "mapping.load_imbalance", "dse.step1_ms",
               "dse.exchange_ms", "dse.step2_ms", "dse.combine_ms",
               "dse.total_ms", "core.outside_dse_ms",
               "dse.step1_straggler_ratio", "estimation.wls_ms",
               "exchange.fanin_wait_ms", "medici.relay_forward_ms",
               "runtime.mailbox_wait_ms"]
SETUP_LAYERS = ["io.case_ms", "decomp.partition_buses_ms",
                "decomp.decompose_ms", "core.construct_ms",
                "core.cold_frame_ms"]


class BenchError(Exception):
    """A failure that ends the run without a result."""


def catalogue():
    """BENCHMARK.json: metric names, units, bounds and the run length."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- statistics

def percentile(values, p):
    """Linear-interpolation percentile of `values` (p in [0, 100])."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n, target):
    """The highest whole percentile, at most `target`, with at least ten of
    `n` samples beyond it; 50 when even the median has fewer than ten."""
    if n <= 0:
        return 50
    highest = math.floor(100.0 * (1.0 - MIN_SAMPLES / n) + 1e-9)
    return max(50, min(int(target), highest))


def relative_spread(values):
    """Run-to-run spread as a share of the median: the quartile distance
    from four runs on, the range below that, 0 for a single run."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        low, high = min(values), max(values)
    else:
        low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


# ---------------------------------------------------------------- build + run

def build(build_dir=BUILD):
    """Build bench_cycle inside the repository's own build (a no-op when
    nothing changed) and refuse any configuration but the shipped one.

    A new build directory is configured with the `release` preset; an
    existing one (say build-release) keeps its settings and only gains the
    benchmark, through bench_cycle.cmake."""
    if not (ROOT / "CMakePresets.json").is_file():
        raise BenchError(f"no CMakePresets.json under {ROOT}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    build_dir = (ROOT / build_dir).resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    cache_file = build_dir / "CMakeCache.txt"
    log = build_dir / "bench_cycle_build.log"
    attach = f"-DCMAKE_PROJECT_gridse_INCLUDE={HERE / 'bench_cycle.cmake'}"
    with open(build_dir / ".bench_cycle.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(build_dir), "-j",
                  str(os.cpu_count() or 1), "--target", "bench_cycle"]]
        if not cache_file.exists():
            steps.insert(0, ["cmake", "--preset", "release",
                             "-B", str(build_dir), attach])
        elif "CMAKE_PROJECT_gridse_INCLUDE" not in cache_file.read_text():
            steps.insert(0, ["cmake", "-B", str(build_dir), attach])
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    tail = log.read_text().splitlines()[-30:]
                    raise BenchError("build failed:\n" + "\n".join(tail))
    cache = cache_file.read_text()
    for want in ("CMAKE_BUILD_TYPE:STRING=Release",
                 "GRIDSE_DEBUG_SYNC:BOOL=OFF", "GRIDSE_OBS:BOOL=ON"):
        if want not in cache:
            raise BenchError(f"refusing {build_dir}: it is built without "
                             f"{want}")
    return build_dir / "bench" / "bench_cycle"


def time_wait_count():
    """Sockets in TIME_WAIT in this network namespace (-1 if unknown)."""
    try:
        for line in Path("/proc/net/sockstat").read_text().splitlines():
            if line.startswith("TCP:"):
                fields = line.split()
                return int(fields[fields.index("tw") + 1])
    except (OSError, ValueError, IndexError):
        pass
    return -1


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over CPUs since
    boot (the `steal` column of /proc/stat); 0 if unknown."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def hygiene(workload):
    """Machine fingerprint at the start of a run. Before the TCP workload,
    wait (untimed) for TIME_WAIT sockets left by earlier runs to drain, so
    connect() never searches a nearly exhausted ephemeral-port range."""
    waited = 0.0
    tw = time_wait_count()
    if workload == TCP_WORKLOAD:
        start = time.monotonic()
        while tw > TIME_WAIT_LIMIT and waited < TIME_WAIT_MAX_WAIT_S:
            time.sleep(1.0)
            waited = time.monotonic() - start
            tw = time_wait_count()
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {"nproc": nproc, "loadavg_1m": load1,
            "contended": load1 > nproc / 2, "time_wait_at_start": tw,
            "time_wait_waited_s": round(waited, 1)}


def run_binary(binary, workload, seed, seconds, frames, setups, trace,
               deadline):
    """Run bench_cycle once and return its raw samples."""
    tag = f"{workload}-s{seed}-{os.getpid()}{'-trace' if trace else ''}"
    out = OUT / "runs" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(out)]
    if frames:
        cmd += ["--frames", str(frames)]
    if setups:
        cmd += ["--setups", str(setups)]
    if trace:
        cmd += ["--trace", str(OUT / "trace" / tag)]
    # The program reads GRIDSE_* overrides from the environment; the
    # benchmark's inputs come from its arguments only.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRIDSE_")}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: bench_cycle timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload}: bench_cycle exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    raw = json.loads(out.read_text())
    out.unlink()
    build_info = raw["build"]
    if (build_info["type"] != "Release" or build_info["debug_sync"] != 0
            or build_info["obs"] != 1 or not build_info["ndebug"]):
        raise BenchError(f"refusing a non-shipped build: {build_info}")
    return raw


# ---------------------------------------------------------------- metrics

def end_to_end(raw):
    """End-to-end metrics of an untraced run. Frame latency and CPU time are
    taken over the frames the host did not interrupt (see README.md), or
    over every frame when fewer than MIN_SAMPLES of those remain."""
    frames = raw["frames"]
    n = len(frames["latency_ms"])
    keep = [i for i in range(n) if not frames["interrupted"][i]]
    if len(keep) < MIN_SAMPLES:
        keep = list(range(n))
    lat = [frames["latency_ms"][i] for i in keep]
    tail = tail_percentile(len(lat), raw["tail_percentile"])
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "cycle_ms.mean": statistics.fmean(lat),
        "cycle_ms.tail": percentile(lat, tail),
        "frames_per_s": n / raw["timed_wall_s"],
        "cpu_ms_per_frame": statistics.fmean(
            frames["cpu_ms"][i] for i in keep),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "vm_rmse": statistics.median(frames["vm_rmse"]),
        "angle_rmse": statistics.median(frames["angle_rmse"]),
    }, {"frames": n, "interrupted_frames": sum(frames["interrupted"]),
        "samples": len(lat), "tail_percentile": tail,
        "cycle_ms.p50": percentile(lat, 50)}


def per_layer(plain, traced):
    """Per-layer metrics from an untraced and a traced run of the same
    workload and seed."""
    layers = traced["layers"]
    n = len(traced["frames"]["latency_ms"])
    k = min(traced["count_window"], n)
    head = {name: values[:k] for name, values in layers.items()}
    m = {}
    for name in SETUP_LAYERS:
        m[name] = statistics.median(traced["setup_layers"][name])
    for name in FRAME_MEANS:
        m[name] = statistics.fmean(layers[name])
    for name in COUNT_MEANS:
        m[name] = sum(head[name]) / k
    for name in COUNT_SUMS:
        m[name] = sum(head[name])
    m["topology.islands_max"] = max(head["topology.islands_max"])
    hits = sum(head["solver.plan_hits"])
    lookups = hits + sum(head["solver.plan_misses_per_frame"])
    m["solver.plan_lookups_per_frame"] = lookups / k
    m["solver.plan_hit_ratio"] = hits / lookups if lookups else 0.0
    m["estimation.centralized_ms"] = traced["single"].get(
        "estimation.centralized_ms", 0.0)
    m["dse.speedup_vs_centralized"] = traced["single"].get(
        "dse.speedup_vs_centralized", 0.0)
    late = plain["frames"]["late_ms"]
    lat = plain["frames"]["latency_ms"]
    m["loadgen.start_late_ms.p95"] = percentile(late, 95)
    m["loadgen.deadline_miss_ratio"] = sum(
        1 for x, ok in zip(lat, plain["frames"]["ok"])
        if x > plain["deadline_ms"] or not ok) / len(lat)
    m["trace.overhead"] = (percentile(traced["frames"]["latency_ms"], 50) /
                           percentile(lat, 50) - 1.0)
    return m, {"traced_frames": n, "count_window": k}


def run_workload(workload, seed, seconds, trace, frames=0, setups=0,
                 binary=None):
    """One workload: returns a result record (see README.md)."""
    binary = binary or build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    info = hygiene(workload)
    started = time.monotonic()
    stolen = steal_seconds()
    spec = catalogue()["per_layer" if trace else "end_to_end"]
    if trace:
        # Half the time untraced (the reference for trace.overhead), half
        # traced, one set-up each, from the same seed and frame schedule.
        plain = run_binary(binary, workload, seed, seconds / 2, frames,
                           setups or 1, False, deadline)
        traced = run_binary(binary, workload, seed, seconds / 2, frames,
                            setups or 1, True, deadline)
        values, extra = per_layer(plain, traced)
        raws = [plain, traced]
    else:
        raw = run_binary(binary, workload, seed, seconds, frames, setups,
                         False, deadline)
        values, extra = end_to_end(raw)
        raws = [raw]
    info["wall_s"] = round(time.monotonic() - started, 2)
    info["over_budget"] = info["wall_s"] >= RUN_BUDGET_S
    # Share of the CPUs' time during the run that other guests of the host
    # took; it slows every timing of the run alike.
    info["steal_share"] = round((steal_seconds() - stolen) /
                                (info["wall_s"] * info["nproc"]), 4)
    info.update(extra)
    first = raws[0]
    info.update({"compiler": first["build"]["compiler"],
                 "build_type": first["build"]["type"],
                 "GRIDSE_OBS": first["build"]["obs"],
                 "GRIDSE_DEBUG_SYNC": first["build"]["debug_sync"],
                 "solver_threads": first["solver_threads"]})
    info["oversubscribed"] = info["solver_threads"] > info["nproc"]

    problems = []
    attempted = sum(len(r["frames"]["ok"]) for r in raws)
    failed = sum(1 for r in raws for ok in r["frames"]["ok"] if not ok)
    for r in raws:
        problems += r["failures"]
    if attempted < 1:
        problems.append("no frame completed")
    for entry in spec:
        v = values.get(entry["name"])
        if v is None or not math.isfinite(v):
            problems.append(f"metric {entry['name']} missing or not finite")
        elif not trace and v <= 0:
            problems.append(f"metric {entry['name']} is {v}, expected > 0")
    if any(e > MAX_VM_ERROR for r in raws for e in r["frames"]["vm_err"]):
        problems.append(f"an estimate is off truth by more than "
                        f"{MAX_VM_ERROR} p.u.")
    units = {e["name"]: e["unit"] for e in spec}
    return {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
        "info": info,
    }


def print_record(rec):
    print(f"== {rec['workload']} (seed {rec['seed']}"
          f"{', traced' if rec['trace'] else ''})")
    for key, value in rec["info"].items():
        print(f"   {key}: {value}")
    for name, m in rec["metrics"].items():
        print(f"   {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"   frames: {rec['attempted']} attempted, {rec['failed']} failed")
    for p in rec["problems"][:10]:
        print(f"   CHECK FAILED: {p}")


# ---------------------------------------------------------------- compare

def compare(path_a, path_b):
    """One row per workload: each end-to-end metric of B's median run
    against A's reads ok (within bound), WORSE (out of bound) or unresolved.
    Unresolved means the run-to-run spread of either side is wider than the
    bound, or unknown because a side has a single run; it reads ok anyway
    when every run of B is better than every run of A."""
    sets = []
    for path in (path_a, path_b):
        with open(path) as f:
            sets.append(json.load(f)["results"])
    out_of_bound = False
    for workload in WORKLOADS:
        if any(workload not in s for s in sets):
            print(f"{workload}: missing from one side")
            out_of_bound = True
            continue
        cells = []
        for entry in catalogue()["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            runs = [[r["metrics"][name]["value"] for r in s[workload]]
                    for s in sets]
            va, vb = (statistics.median(v) for v in runs)
            change = (vb - va) / va
            sign = 1 if entry["better"] == "lower" else -1
            worse = sign * change
            b_wins = (max(sign * x for x in runs[1]) <
                      min(sign * x for x in runs[0]))
            resolved = (min(len(v) for v in runs) >= 2
                        and max(relative_spread(v) for v in runs) <= bound)
            if not resolved:
                verdict = "ok" if b_wins else "unresolved"
            elif worse > bound:
                verdict = "WORSE"
                out_of_bound = True
            else:
                verdict = "ok"
            cells.append(f"{name} {change:+.1%} {verdict}")
        print(f"{workload}: " + "; ".join(cells))
    return 1 if out_of_bound else 0


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=catalogue()["run_seconds"],
                    help="timed seconds per workload run (default: "
                         "run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1 = traced run reporting per-layer metrics")
    ap.add_argument("--frames", type=int, default=0,
                    help="exactly this many timed frames (overrides "
                         "--seconds)")
    ap.add_argument("--setups", type=int, default=0,
                    help="set-ups per run (default: the workload's own)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs of each workload, interleaved (for --out); "
                         "--compare needs at least 2 to judge the spread")
    ap.add_argument("--out", help="also write the result record(s) here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two sets written with --out")
    ap.add_argument("--build-dir", default=str(BUILD.relative_to(ROOT)),
                    help="build tree, relative to the repository root; a "
                         "new one is configured with the release preset "
                         "(default: %(default)s)")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    workloads = [args.workload] if args.workload else WORKLOADS
    records = []
    over_budget = False
    try:
        binary = build(args.build_dir)
        for _ in range(args.repeat):
            set_wall_s = 0.0
            for w in workloads:
                records.append(run_workload(w, args.seed, args.seconds,
                                            args.trace, args.frames,
                                            args.setups, binary))
                print_record(records[-1])
                set_wall_s += records[-1]["info"]["wall_s"]
                over_budget |= records[-1]["info"]["over_budget"]
            if not args.workload:
                over_budget |= set_wall_s > SET_BUDGET_S
                print(f"== set of {len(workloads)} workloads: "
                      f"{set_wall_s:.1f} s (budget {SET_BUDGET_S} s, "
                      f"{RUN_BUDGET_S} s per run)")
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    if args.out:
        results = {}
        for r in records:
            results.setdefault(r["workload"], []).append(r)
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "results": results}, f, indent=1)
    ok = all(r["correct"] for r in records)
    at_run_seconds = (not args.frames and
                      args.seconds == catalogue()["run_seconds"])
    if not args.workload and at_run_seconds and over_budget:
        print("run.py: a run or the set exceeded its wall-time budget",
              file=sys.stderr)
        ok = False
    if args.workload:
        rec = records[-1]
        print(json.dumps({"correct": rec["correct"],
                          "attempted": rec["attempted"],
                          "failed": rec["failed"],
                          "metrics": rec["metrics"]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
