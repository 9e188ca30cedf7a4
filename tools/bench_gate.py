#!/usr/bin/env python3
"""Merge bench-smoke outputs into BENCH_ci.json and gate regressions.

Inputs: one or more google-benchmark JSON files (bench_pcg_solvers,
bench_step1_sweep, ...) and the obs_report.json published by
gridse_report. Output: one merged document (schema "gridse-bench-ci/1")
with two metric classes:

* "enforced" — deterministic given the seeded inputs: solver iteration
  counts, lane counts, exchange byte counts and model sizes. Any benchmark
  counter whose name ends in "_iters", "_bytes", "_lanes" or "_nnz" (or is
  exactly "lanes" or "model_buses") is promoted to this class
  automatically. A growth beyond
  --tolerance (default 25%) over the committed BENCH_baseline.json fails
  the job; these moving means the algorithm changed, not that the runner
  was busy.
* "advisory" — wall-clock numbers. Republished for trend dashboards but
  never gated: shared CI runners are too noisy for time-based gates.
* "informational" — resilience counters (exchange.retries,
  exchange.degraded_subsystems, exchange.corrupt_frames) and recovery
  counters (recovery.remaps, recovery.rejoins, recovery.checkpoint_bytes),
  and topology counters/gauges (topology.events_applied,
  topology.masked_measurements, topology.anchors_added, topology.islands).
  Published so a run that limped through on retries, degraded subsystems,
  a remap epoch, or a switching event is visible in the merged
  document, but never gated and never required in the baseline: a healthy
  bench run legitimately reports zeros.

An optional --timeseries FILE (the gridse-timeseries/1 JSONL written by
the telemetry sampler, docs/OBSERVABILITY.md) adds per-cycle health to
the informational class: total slo.cycle_deadline_missed across cycles,
total exchange.retries, the cycle count, and the per-cycle Gauss-Newton
iteration spread (max minus min of each cycle's iteration delta — 0
means every cycle solved in identically many iterations, the
deterministic steady state).

`--diff --baseline FILE --current FILE [--out-md FILE]` renders the
enforced and advisory metrics of two merged documents side by side as a
GitHub-flavored markdown table (value, reference, % delta) — used by CI
to publish a BENCH_ci-vs-baseline summary into $GITHUB_STEP_SUMMARY. The
diff never gates; it is a rendering of what the gate saw.

A second, independent mode validates chaos health reports instead of
gating benchmarks: `--validate-chaos-report FILE...` checks each JSON
produced by the chaos suites (tests/fault/) against the expected shape —
including the optional "recovery" object written by the recovery chaos
test and the optional "topology"/"replay" pair written by the topology
chaos test — and exits 2 on the first malformed document.

A missing or unreadable BENCH_baseline.json is an error (exit 3), not a
silent pass: a gate that cannot find its reference must say so. Pass
--allow-seed to (re)generate a baseline instead — the merged output is
then copied verbatim as the new reference. A baseline that shares no
enforced metric keys with the current output also fails (exit 4): such a
gate would compare nothing while appearing green.

Exit codes: 0 ok, 1 regression, 2 bad usage/inputs, 3 baseline missing
or unreadable, 4 no overlapping enforced metrics.
"""
import argparse
import json
import shutil
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


#: Benchmark counters promoted from advisory to enforced: anything ending
#: in one of these suffixes (or named exactly "lanes" or "model_buses") is
#: deterministic given the seeded inputs, so drift means an algorithm change.
ENFORCED_COUNTER_SUFFIXES = ("_iters", "_bytes", "_lanes", "_nnz")
ENFORCED_COUNTER_NAMES = ("lanes", "model_buses")


def is_enforced_counter(key):
    return key.endswith(ENFORCED_COUNTER_SUFFIXES) or key in ENFORCED_COUNTER_NAMES


def timeseries_info(path):
    """Informational keys from a gridse-timeseries/1 JSONL series."""
    slo_missed = 0
    retries = 0
    iteration_deltas = []
    cycles = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("schema") is not None:
                if record["schema"] != "gridse-timeseries/1":
                    raise ValueError(
                        f"{path}: schema {record['schema']!r}, expected "
                        "'gridse-timeseries/1'")
                continue
            if record.get("kind") != "cycle":
                continue  # interval samples overlap the cycle deltas
            cycles += 1
            counters = record.get("counters", {})
            slo_missed += counters.get("slo.cycle_deadline_missed", 0)
            retries += counters.get("exchange.retries", 0)
            gn = record.get("histograms", {}).get(
                "wls.gauss_newton_iterations")
            if gn:
                iteration_deltas.append(gn.get("sum", 0))
    spread = (max(iteration_deltas) - min(iteration_deltas)
              if iteration_deltas else 0)
    return {
        "timeseries.cycles": cycles,
        "timeseries.slo.cycle_deadline_missed": slo_missed,
        "timeseries.exchange.retries": retries,
        "timeseries.gn_iterations.spread": spread,
    }


def partition_report_info(path):
    """Informational keys from a gridse-partition-report/1 document.

    Partition wall time and cut are published per tier (partition.<tier>.*)
    but never gated: time is runner-dependent and cut legitimately moves
    when the partitioner's objective or the generator's topology evolves.
    A non-deterministic tier is the exception — that is a hard error here,
    mirroring the bench binary's own exit code.
    """
    doc = load(path)
    if doc.get("schema") != "gridse-partition-report/1":
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r}, expected "
            "'gridse-partition-report/1'")
    info = {}
    for tier in doc.get("tiers", []):
        name = tier["tier"]
        info[f"partition.{name}.time_ms"] = tier["time_ms"]
        info[f"partition.{name}.cut"] = tier["cut"]
        info[f"partition.{name}.boundary_buses"] = tier["boundary_buses"]
        info[f"partition.{name}.boundary_coupling"] = tier["boundary_coupling"]
        info[f"partition.{name}.speedup"] = tier["speedup"]
        if not tier.get("deterministic", True):
            raise ValueError(f"{path}: tier {name} is not thread-count "
                             "deterministic")
    return info


def merge(bench_docs, report):
    """Build the BENCH_ci.json document from the bench JSONs + obs report."""
    doc = {
        "schema": "gridse-bench-ci/1",
        "case": report.get("case"),
        "transport": report.get("transport"),
        "cycles": report.get("cycles", 1),
        "benchmarks": {},
        "enforced": {},
        "advisory": {},
        "informational": {},
    }

    for bench in bench_docs:
        for b in bench.get("benchmarks", []):
            name = b["name"]
            if b.get("run_type") == "aggregate":
                continue
            entry = {
                "real_time": b.get("real_time"),
                "cpu_time": b.get("cpu_time"),
                "time_unit": b.get("time_unit"),
            }
            for key, value in b.items():
                if is_enforced_counter(key):
                    entry[key] = value
                    doc["enforced"][f"bench.{name}.{key}"] = value
            doc["benchmarks"][name] = entry
            doc["advisory"][
                f"bench.{name}.real_time_{b.get('time_unit', 'ns')}"
            ] = b.get("real_time")

    metrics = report.get("metrics", {})
    cycles = max(1, doc["cycles"])

    for hist_name in ("wls.pcg.iterations", "wls.gauss_newton_iterations"):
        hist = metrics.get("histograms", {}).get(hist_name)
        if hist and hist.get("count"):
            doc["enforced"][f"obs.{hist_name}.mean"] = hist["sum"] / hist["count"]
            doc["enforced"][f"obs.{hist_name}.max"] = hist["max"]

    for counter in ("dse.pseudo.bytes", "dse.combine.bytes", "dse.pseudo.messages",
                    "dse.combine.messages", "dse.redistribute.bytes",
                    "exchange.boundary_bytes"):
        value = metrics.get("counters", {}).get(counter)
        if value is not None:
            doc["enforced"][f"obs.{counter}.per_cycle"] = value / cycles

    # Resilience counters: a bench run that survived on retries or finished
    # degraded still produces numbers, so these are surfaced — but they are
    # run-environment noise, not algorithm change, hence never gated.
    for counter in ("exchange.retries", "exchange.degraded_subsystems",
                    "exchange.corrupt_frames", "recovery.remaps",
                    "recovery.rejoins", "recovery.checkpoint_bytes",
                    "topology.events_applied", "topology.masked_measurements",
                    "topology.anchors_added"):
        doc["informational"][f"obs.{counter}"] = (
            metrics.get("counters", {}).get(counter, 0))

    # Topology gauge: the island count of the last cycle is a health
    # indicator (1 means the system returned to a single energized
    # component), never a regression signal.
    value = metrics.get("gauges", {}).get("topology.islands")
    if value is not None:
        doc["informational"]["obs.topology.islands"] = value

    for span_name, span in metrics.get("spans", {}).items():
        doc["advisory"][f"obs.span.{span_name}.total_seconds"] = span[
            "total_seconds"
        ]

    for row in report.get("cycle_rows", []):
        if row.get("cycle") == 1:
            for key in ("step1_seconds", "exchange_seconds", "step2_seconds",
                        "combine_seconds", "total_seconds"):
                doc["advisory"][f"obs.cycle1.{key}"] = row.get(key)
            doc["enforced"]["obs.cycle1.bytes_sent"] = row.get("bytes_sent")

    return doc


def gate(doc, baseline, tolerance):
    """Compare enforced metrics against the baseline; return failure lines."""
    failures = []
    base = baseline.get("enforced", {})
    for key, current in sorted(doc["enforced"].items()):
        if key not in base:
            print(f"bench_gate: new enforced metric (no baseline): {key}")
            continue
        reference = base[key]
        if reference <= 0:
            continue
        growth = (current - reference) / reference
        marker = "FAIL" if growth > tolerance else "ok"
        print(f"bench_gate: [{marker}] {key}: {reference:g} -> {current:g} "
              f"({growth:+.1%})")
        if growth > tolerance:
            failures.append(
                f"{key} regressed {growth:+.1%} ({reference:g} -> {current:g}),"
                f" tolerance {tolerance:.0%}"
            )
    for key in sorted(base):
        if key not in doc["enforced"]:
            failures.append(f"enforced metric disappeared from outputs: {key}")
    return failures


def _fmt(value):
    """Render one metric value for the diff table."""
    if value is None:
        return "—"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return f"{value:g}"


def _delta(current, reference):
    """Render the percent delta column, dash when undefined."""
    if current is None or reference is None or reference == 0:
        return "—"
    return f"{(current - reference) / reference:+.1%}"


def render_diff(baseline, current):
    """Render two merged documents as a markdown comparison table."""
    lines = ["# Bench gate: current vs baseline", ""]
    for klass, gated in (("enforced", True), ("advisory", False)):
        base = baseline.get(klass, {})
        cur = current.get(klass, {})
        keys = sorted(set(base) | set(cur))
        if not keys:
            continue
        title = "Enforced (gated)" if gated else "Advisory (not gated)"
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| metric | baseline | current | delta |")
        lines.append("|---|---:|---:|---:|")
        for key in keys:
            lines.append(
                f"| `{key}` | {_fmt(base.get(key))} | {_fmt(cur.get(key))} "
                f"| {_delta(cur.get(key), base.get(key))} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def run_diff(args):
    """--diff mode: render the markdown table; never gates, exit 0/2 only."""
    missing = [name for name, value in (("--baseline", args.baseline),
                                        ("--current", args.current))
               if not value]
    if missing:
        print(f"bench_gate: ERROR: --diff requires {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        baseline = load(args.baseline)
        current = load(args.current)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: ERROR: --diff inputs unreadable ({e})",
              file=sys.stderr)
        return 2
    table = render_diff(baseline, current)
    if args.out_md:
        with open(args.out_md, "w") as f:
            f.write(table)
        print(f"bench_gate: wrote {args.out_md}")
    else:
        sys.stdout.write(table)
    return 0


#: Chaos health-report shape: field -> required type(s). Hand-rolled on
#: purpose — CI runners carry no jsonschema package, and the shape is small
#: enough that an explicit table is clearer than a schema document.
CHAOS_REQUIRED = {
    "test": str,
    "injected": (int, float),
    "retries": (int, float),
    "seconds": (int, float),
    "all_converged": bool,
    "degraded": list,
    "unresponsive_ranks": list,
    "injections": list,
}
CHAOS_DEGRADED_REQUIRED = {
    "subsystem": (int, float),
    "missing_neighbors": list,
    "missing_redistribution": bool,
}
CHAOS_RECOVERY_REQUIRED = {
    "remaps": (int, float),
    "rejoins": (int, float),
    "checkpoint_bytes": (int, float),
}
CHAOS_TOPOLOGY_REQUIRED = {
    "events_applied": (int, float),
    "islands": (int, float),
}


def _type_ok(value, types):
    """isinstance with JSON semantics: bool never passes as a number."""
    if types is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    return isinstance(value, types)


def chaos_report_errors(doc):
    """Validate one chaos health report; return a list of problem strings."""
    errors = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    for field, types in CHAOS_REQUIRED.items():
        if field not in doc:
            errors.append(f"missing required field '{field}'")
        elif not _type_ok(doc[field], types):
            errors.append(f"field '{field}' has type "
                          f"{type(doc[field]).__name__}")
    for i, entry in enumerate(doc.get("degraded", [])):
        if not isinstance(entry, dict):
            errors.append(f"degraded[{i}] is not an object")
            continue
        for field, types in CHAOS_DEGRADED_REQUIRED.items():
            if field not in entry:
                errors.append(f"degraded[{i}] missing '{field}'")
            elif not _type_ok(entry[field], types):
                errors.append(f"degraded[{i}].{field} has type "
                              f"{type(entry[field]).__name__}")
        for j, n in enumerate(entry.get("missing_neighbors", [])):
            if not _type_ok(n, (int, float)):
                errors.append(f"degraded[{i}].missing_neighbors[{j}] "
                              f"is not a number")
    for i, r in enumerate(doc.get("unresponsive_ranks", [])):
        if not _type_ok(r, (int, float)):
            errors.append(f"unresponsive_ranks[{i}] is not a number")
    recovery = doc.get("recovery")
    if recovery is not None:
        if not isinstance(recovery, dict):
            errors.append("'recovery' is not an object")
        else:
            for field, types in CHAOS_RECOVERY_REQUIRED.items():
                if field not in recovery:
                    errors.append(f"recovery missing '{field}'")
                elif not _type_ok(recovery[field], types):
                    errors.append(f"recovery.{field} has type "
                                  f"{type(recovery[field]).__name__}")
    topology = doc.get("topology")
    if topology is not None:
        if not isinstance(topology, dict):
            errors.append("'topology' is not an object")
        else:
            for field, types in CHAOS_TOPOLOGY_REQUIRED.items():
                if field not in topology:
                    errors.append(f"topology missing '{field}'")
                elif not _type_ok(topology[field], types):
                    errors.append(f"topology.{field} has type "
                                  f"{type(topology[field]).__name__}")
        # A report carrying topology events should also carry the replay
        # log (the bit-identical determinism witness published as a CI
        # artifact).
        if "replay" in doc and not isinstance(doc["replay"], list):
            errors.append("'replay' is not an array")
    return errors


def validate_chaos_reports(paths):
    """Validate every report; return 0 when all pass, 2 on the first error."""
    if not paths:
        print("bench_gate: ERROR: --validate-chaos-report got no files",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_gate: ERROR: {path}: unreadable ({e})",
                  file=sys.stderr)
            return 2
        errors = chaos_report_errors(doc)
        if errors:
            for err in errors:
                print(f"bench_gate: ERROR: {path}: {err}", file=sys.stderr)
            return 2
        recovery = doc.get("recovery", {})
        suffix = (f" recovery(remaps={recovery.get('remaps')},"
                  f" rejoins={recovery.get('rejoins')},"
                  f" checkpoint_bytes={recovery.get('checkpoint_bytes')})"
                  if recovery else "")
        topology = doc.get("topology", {})
        if topology:
            suffix += (f" topology(events={topology.get('events_applied')},"
                       f" islands={topology.get('islands')})")
        print(f"bench_gate: [ok] {path}: test={doc['test']} "
              f"injected={doc['injected']:g} degraded={len(doc['degraded'])}"
              f"{suffix}")
    print(f"bench_gate: {len(paths)} chaos report(s) valid.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--validate-chaos-report", nargs="+", metavar="FILE",
                        help="validate chaos health reports instead of "
                             "gating benchmarks; exits 2 on the first "
                             "malformed document")
    parser.add_argument("--diff", action="store_true",
                        help="render a markdown comparison of two merged "
                             "documents (--baseline vs --current) instead "
                             "of gating")
    parser.add_argument("--current",
                        help="merged BENCH_ci.json to diff against the "
                             "baseline (only with --diff)")
    parser.add_argument("--out-md",
                        help="write the --diff markdown table here instead "
                             "of stdout")
    parser.add_argument("--benchmarks", nargs="+", metavar="FILE",
                        help="google-benchmark JSON file(s), e.g. from "
                             "bench_pcg_solvers and bench_step1_sweep")
    parser.add_argument("--obs-report",
                        help="obs_report.json from gridse_report")
    parser.add_argument("--timeseries",
                        help="optional gridse-timeseries/1 JSONL from the "
                             "telemetry sampler; adds per-cycle SLO/retry/"
                             "iteration-stability informational keys")
    parser.add_argument("--partition-report",
                        help="optional gridse-partition-report/1 JSON from "
                             "bench_partitioner_scaling; adds per-tier "
                             "partition.<tier>.time_ms/.cut informational "
                             "keys (errors if any tier was "
                             "non-deterministic)")
    parser.add_argument("--baseline",
                        help="committed BENCH_baseline.json")
    parser.add_argument("--out",
                        help="merged BENCH_ci.json to write")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional growth of enforced metrics")
    parser.add_argument("--allow-seed", action="store_true",
                        help="seed a missing baseline from this run's output "
                             "instead of failing with exit code 3")
    args = parser.parse_args()

    if args.validate_chaos_report is not None:
        return validate_chaos_reports(args.validate_chaos_report)
    if args.diff:
        return run_diff(args)
    missing = [name for name, value in
               (("--benchmarks", args.benchmarks),
                ("--obs-report", args.obs_report),
                ("--baseline", args.baseline),
                ("--out", args.out)) if not value]
    if missing:
        parser.error(f"the following arguments are required: "
                     f"{', '.join(missing)}")

    doc = merge([load(path) for path in args.benchmarks],
                load(args.obs_report))
    if args.timeseries:
        try:
            doc["informational"].update(timeseries_info(args.timeseries))
        except (OSError, json.JSONDecodeError, ValueError) as e:
            print(f"bench_gate: ERROR: --timeseries {args.timeseries}: {e}",
                  file=sys.stderr)
            return 2
    if args.partition_report:
        try:
            doc["informational"].update(
                partition_report_info(args.partition_report))
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
            print(f"bench_gate: ERROR: --partition-report "
                  f"{args.partition_report}: {e}", file=sys.stderr)
            return 2
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_gate: wrote {args.out} "
          f"({len(doc['enforced'])} enforced, {len(doc['advisory'])} advisory, "
          f"{len(doc['informational'])} informational)")
    for key, value in sorted(doc["informational"].items()):
        print(f"bench_gate: [info] {key} = {value:g} (not gated)")

    try:
        baseline = load(args.baseline)
    except (FileNotFoundError, json.JSONDecodeError, OSError) as e:
        if args.allow_seed:
            shutil.copyfile(args.out, args.baseline)
            print(f"bench_gate: no usable baseline; seeded {args.baseline}")
            return 0
        print(f"bench_gate: ERROR: baseline {args.baseline} is missing or "
              f"unreadable ({e}); the gate cannot run. Re-seed it with "
              f"--allow-seed if this is intentional.", file=sys.stderr)
        return 3

    overlap = set(doc["enforced"]) & set(baseline.get("enforced", {}))
    if not overlap:
        print(f"bench_gate: ERROR: no enforced metric keys overlap between "
              f"{args.baseline} and this run's output; the gate would "
              f"compare nothing. Re-seed the baseline with --allow-seed.",
              file=sys.stderr)
        return 4

    failures = gate(doc, baseline, args.tolerance)
    if failures:
        for line in failures:
            print(f"bench_gate: FAIL: {line}", file=sys.stderr)
        return 1
    print("bench_gate: all enforced metrics within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
