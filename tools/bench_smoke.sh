#!/usr/bin/env bash
# CI benchmark smoke: run the curated benchmark subset against a release
# build, capture the observability report of a full DSE run, merge
# everything into BENCH_ci.json at the repo root, and gate the
# deterministic solver/traffic metrics against the committed baseline
# (BENCH_baseline.json).
#
# Usage: tools/bench_smoke.sh [build-dir] [out-dir]
#
# Extra bench_gate.py flags (e.g. --allow-seed to re-seed the baseline)
# can be passed via the BENCH_GATE_FLAGS environment variable.
#
# The curated subset mirrors the paper's evaluation:
#   bench_table3_local_overhead   — local DSE overhead rows (Table III)
#   bench_table4_network_overhead — networked overhead rows (Table IV)
#   bench_pcg_solvers             — the WLS solve (§IV-C): LDLt factor of
#                                   a first gain, PCG on a moved gain under
#                                   it, one IEEE-118 estimate, and the
#                                   IEEE-118 AC truth's Newton–Krylov power
#                                   flow; emits benchmark JSON
#   bench_step1_sweep             — cached per-subsystem Step-1 sweep,
#                                   emits benchmark JSON
#   bench_telemetry_overhead      — per-cycle telemetry sampler cost
#                                   (<1% cycle budget), emits benchmark JSON
#   bench_partitioner_scaling     — mapping ablation + hierarchical scale
#                                   tiers (10k/30k/100k buses); emits the
#                                   gridse-partition-report/1 JSON merged
#                                   into BENCH_ci.json as informational
#                                   partition.<tier>.* keys
#
# After gating, a markdown diff of BENCH_ci.json vs the baseline is
# rendered to ${out_dir}/bench_diff.md for the CI step summary.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-release}"
out_dir="${2:-${repo_root}/bench-out}"
mkdir -p "${out_dir}"

echo "bench_smoke: Table III local overhead..." >&2
"${build_dir}/bench/bench_table3_local_overhead" \
  | tee "${out_dir}/table3_local_overhead.txt"

echo "bench_smoke: Table IV network overhead..." >&2
"${build_dir}/bench/bench_table4_network_overhead" \
  | tee "${out_dir}/table4_network_overhead.txt"

echo "bench_smoke: PCG/LDLt solver bench (benchmark JSON)..." >&2
"${build_dir}/bench/bench_pcg_solvers" \
  --benchmark_out="${out_dir}/pcg_benchmarks.json" \
  --benchmark_out_format=json

echo "bench_smoke: Step-1 sweep (benchmark JSON)..." >&2
"${build_dir}/bench/bench_step1_sweep" \
  --benchmark_out="${out_dir}/step1_benchmarks.json" \
  --benchmark_out_format=json

echo "bench_smoke: telemetry sampler overhead (benchmark JSON)..." >&2
"${build_dir}/bench/bench_telemetry_overhead" \
  --benchmark_out="${out_dir}/telemetry_benchmarks.json" \
  --benchmark_out_format=json

echo "bench_smoke: partitioner scale tiers (partition report JSON)..." >&2
"${build_dir}/bench/bench_partitioner_scaling" \
  "${out_dir}/partition_report.json" \
  | tee "${out_dir}/partitioner_scaling.txt"

echo "bench_smoke: DSE observability report (ieee118)..." >&2
"${build_dir}/tools/gridse_report" --case ieee118 --cycles 3 \
  --out "${out_dir}/obs_report.json" \
  --trace-dir "${out_dir}/trace" \
  --telemetry-dir "${out_dir}/telemetry"

# Per-cycle telemetry: analyze the time-series into a markdown report for
# the CI step summary. A GRIDSE_OBS=OFF build writes no series; skip.
if [ -f "${out_dir}/telemetry/timeseries.jsonl" ]; then
  echo "bench_smoke: analyzing telemetry time-series..." >&2
  "${build_dir}/tools/gridse_stats" "${out_dir}/telemetry" \
    --out "${out_dir}/telemetry_report.md"
  timeseries_flag=(--timeseries "${out_dir}/telemetry/timeseries.jsonl")
else
  echo "bench_smoke: no telemetry series (GRIDSE_OBS=OFF build?); skipping" >&2
  timeseries_flag=()
fi

# Merge the per-rank distributed-trace files into a Perfetto-loadable
# trace.json and fail on a malformed document. A GRIDSE_OBS=OFF build
# writes no trace files; skip the merge rather than fail.
if compgen -G "${out_dir}/trace/trace_rank_*.jsonl" > /dev/null; then
  echo "bench_smoke: merging distributed trace..." >&2
  "${build_dir}/tools/gridse_trace" --out "${out_dir}/trace.json" \
    "${out_dir}"/trace/trace_rank_*.jsonl \
    | tee "${out_dir}/trace_summary.txt"
  "${build_dir}/tools/gridse_trace" --validate "${out_dir}/trace.json"
else
  echo "bench_smoke: no trace files (GRIDSE_OBS=OFF build?); skipping merge" >&2
fi

# BENCH_GATE_FLAGS is intentionally unquoted word-splitting below.
# shellcheck disable=SC2086
python3 "${repo_root}/tools/bench_gate.py" \
  --benchmarks "${out_dir}/pcg_benchmarks.json" \
               "${out_dir}/step1_benchmarks.json" \
               "${out_dir}/telemetry_benchmarks.json" \
  --obs-report "${out_dir}/obs_report.json" \
  --partition-report "${out_dir}/partition_report.json" \
  ${timeseries_flag[@]+"${timeseries_flag[@]}"} \
  --baseline "${repo_root}/BENCH_baseline.json" \
  --out "${repo_root}/BENCH_ci.json" \
  ${BENCH_GATE_FLAGS:-}

# Render the current-vs-baseline markdown table for the CI step summary.
# Runs after the gate so a regression still fails the job first; when the
# gate just seeded the baseline, the diff is all-zero deltas, which is fine.
python3 "${repo_root}/tools/bench_gate.py" --diff \
  --baseline "${repo_root}/BENCH_baseline.json" \
  --current "${repo_root}/BENCH_ci.json" \
  --out-md "${out_dir}/bench_diff.md"
