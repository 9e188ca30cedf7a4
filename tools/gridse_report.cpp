// gridse_report — run a DSE case end to end and publish the observability
// report the paper's evaluation tables are read from.
//
//   gridse_report [--case ieee118|wecc37] [--clusters K] [--cycles N]
//                 [--transport inproc|medici|direct] [--rounds R]
//                 [--out obs_report.json] [--trace-dir DIR] [--table]
//                 [--telemetry-dir DIR] [--cycle-deadline-ms MS]
//                 [--recovery 0|1] [--kill-cluster C --kill-cycle N]
//
// The service-run flags drive a long-running estimation scenario: with
// --telemetry-dir every cycle appends a gridse-timeseries/1 record (and
// refreshes the live metrics.prom exposition); with --recovery plus
// --kill-cluster/--kill-cycle, cluster C is killed right before cycle N so
// the run exercises remap/degraded cycles and the flight recorder writes
// flight-N.json (analyze with gridse_stats).
//
// The report (schema "gridse-obs-report/1") carries two views of the same
// run: per-cycle phase timings and byte counts in the shape of the paper's
// Table III/IV rows, and the full metrics-registry snapshot (spans,
// counters, gauges, histograms) accumulated across all cycles. With
// --table the human-readable registry dump is also printed to stdout.
// Any other flag is an error, never silently ignored.
#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/architecture.hpp"
#include "io/synthetic.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace gridse;

struct Args {
  std::map<std::string, std::string> options;
  bool table = false;
  bool bad = false;
};

/// The valued flags run() reads.
constexpr std::array<std::string_view, 12> kFlags{
    "case",          "clusters",          "cycles",       "transport",
    "rounds",        "out",               "trace-dir",    "telemetry-dir",
    "recovery",      "kill-cluster",      "kill-cycle",   "cycle-deadline-ms"};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--table") {
      args.table = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      const std::string name = key.substr(2);
      if (std::find(kFlags.begin(), kFlags.end(), name) == kFlags.end()) {
        throw InvalidInput("unknown flag " + key);
      }
      args.options[name] = argv[++i];
    } else {
      args.bad = true;
    }
  }
  return args;
}

int opt_int(const Args& a, const std::string& key, int fallback) {
  const auto it = a.options.find(key);
  return it == a.options.end()
             ? fallback
             : static_cast<int>(parse_integer(
                   "--" + key, it->second, "an integer",
                   std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max()));
}

std::string opt_str(const Args& a, const std::string& key,
                    const std::string& fallback) {
  const auto it = a.options.find(key);
  return it == a.options.end() ? fallback : it->second;
}

std::string fmt_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: gridse_report [--case ieee118|wecc37] [--clusters K]\n"
      "                     [--cycles N] [--transport inproc|medici|direct]\n"
      "                     [--rounds R] [--out obs_report.json]\n"
      "                     [--trace-dir DIR] [--table]\n"
      "                     [--telemetry-dir DIR] [--cycle-deadline-ms MS]\n"
      "                     [--recovery 0|1] [--kill-cluster C "
      "--kill-cycle N]\n");
}

int run(const Args& args) {
  const std::string case_name = opt_str(args, "case", "ieee118");
  io::GeneratedCase generated;
  if (case_name == "ieee118") {
    generated = io::ieee118_dse(2012);
  } else if (case_name == "wecc37") {
    generated = io::wecc37(37);
  } else {
    std::fprintf(stderr, "unknown case '%s' (builtin decomposed cases only)\n",
                 case_name.c_str());
    return 2;
  }

  core::SystemConfig config;
  config.mapping.num_clusters = opt_int(args, "clusters", 3);
  const std::string transport = opt_str(args, "transport", "medici");
  config.transport = core::parse_transport(transport);
  config.dse.step2_rounds = opt_int(args, "rounds", 1);
  const int cycles = opt_int(args, "cycles", 3);

  // Per-rank distributed-trace files land here when the system is torn
  // down; merge them with gridse_trace (docs/OBSERVABILITY.md).
  config.trace_dir = opt_str(args, "trace-dir", "");
  if (!config.trace_dir.empty() && !obs::kEnabled) {
    std::fprintf(stderr,
                 "note: built with GRIDSE_OBS=OFF; no trace files will be "
                 "written to '%s'\n",
                 config.trace_dir.c_str());
  }

  // Per-cycle telemetry + flight recorder (docs/OBSERVABILITY.md). The SLO
  // deadline is the driver's own config.dse.slo.
  config.telemetry.dir = opt_str(args, "telemetry-dir", "");
  config.dse.slo.cycle_deadline =
      std::chrono::milliseconds(opt_int(args, "cycle-deadline-ms", 0));
  if (!config.telemetry.dir.empty() && !obs::kEnabled) {
    std::fprintf(stderr,
                 "note: built with GRIDSE_OBS=OFF; no telemetry will be "
                 "written to '%s'\n",
                 config.telemetry.dir.c_str());
  }

  // Recovery service scenario: kill cluster C right before cycle N (0-based
  // cycle index) so the heartbeat/remap machinery — and the telemetry
  // flight recorder — get exercised deterministically.
  const bool recovery = opt_int(args, "recovery", 0) != 0;
  const int kill_cluster = opt_int(args, "kill-cluster", -1);
  const int kill_cycle = opt_int(args, "kill-cycle", -1);
  if (recovery) {
    config.resilience.recovery.enabled = true;
    config.dse.exchange_deadline = std::chrono::milliseconds(2000);
  }
  if (kill_cluster >= 0 && !recovery) {
    std::fprintf(stderr, "--kill-cluster requires --recovery 1\n");
    return 2;
  }

  // Drop anything a previous run in this process accumulated so the report
  // covers exactly the cycles below.
  obs::MetricsRegistry::global().reset();

  core::DseSystem system(std::move(generated), config);
  std::vector<core::CycleReport> reports;
  reports.reserve(static_cast<std::size_t>(cycles));
  bool all_converged = true;
  for (int i = 0; i < cycles; ++i) {
    if (kill_cluster >= 0 && i == kill_cycle) {
      std::printf("killing cluster %d before cycle %d\n", kill_cluster, i);
      system.kill_cluster(kill_cluster);
    }
    reports.push_back(system.run_cycle(i * 30.0));
    const core::CycleReport& rep = reports.back();
    all_converged = all_converged && rep.dse.all_converged;
    std::printf("cycle %d: %s | step1 %.1f ms | exchange %.1f ms | "
                "step2 %.1f ms | combine %.1f ms | %zu bytes\n",
                i + 1, rep.dse.all_converged ? "converged" : "FAILED",
                rep.dse.step1_seconds * 1e3, rep.dse.exchange_seconds * 1e3,
                rep.dse.step2_seconds * 1e3, rep.dse.combine_seconds * 1e3,
                rep.dse.bytes_sent);
  }

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"gridse-obs-report/1\",\n";
  json += "  \"case\": \"" + case_name + "\",\n";
  json += "  \"clusters\": " + std::to_string(config.mapping.num_clusters) +
          ",\n";
  json += "  \"transport\": \"" + transport + "\",\n";
  json += "  \"cycles\": " + std::to_string(cycles) + ",\n";
  json += "  \"step2_rounds\": " + std::to_string(config.dse.step2_rounds) +
          ",\n";
  json += std::string("  \"obs_enabled\": ") +
          (obs::kEnabled ? "true" : "false") + ",\n";
  json += std::string("  \"all_converged\": ") +
          (all_converged ? "true" : "false") + ",\n";
  json += "  \"cycle_rows\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const core::CycleReport& rep = reports[i];
    json += "    {\"cycle\": " + std::to_string(i + 1);
    json += std::string(", \"converged\": ") +
            (rep.dse.all_converged ? "true" : "false");
    json += ", \"step1_seconds\": " + fmt_double(rep.dse.step1_seconds);
    json += ", \"exchange_seconds\": " + fmt_double(rep.dse.exchange_seconds);
    json += ", \"step2_seconds\": " + fmt_double(rep.dse.step2_seconds);
    json += ", \"combine_seconds\": " + fmt_double(rep.dse.combine_seconds);
    json += ", \"total_seconds\": " + fmt_double(rep.dse.total_seconds);
    json += ", \"bytes_sent\": " + std::to_string(rep.dse.bytes_sent);
    json += ", \"max_vm_error\": " + fmt_double(rep.max_vm_error);
    json += ", \"max_angle_error\": " + fmt_double(rep.max_angle_error);
    json += i + 1 < reports.size() ? "},\n" : "}\n";
  }
  json += "  ],\n";
  json += "  \"metrics\": " +
          obs::snapshot_to_json(obs::MetricsRegistry::global().snapshot(),
                                /*indent=*/2) +
          "\n";
  json += "}\n";

  const std::string out_path = opt_str(args, "out", "obs_report.json");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), json.size());

  if (args.table) {
    std::fputs(obs::MetricsRegistry::global().to_table().c_str(), stdout);
  }
  return all_converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.bad) {
      usage();
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
