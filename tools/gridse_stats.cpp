// gridse_stats — aggregate a gridse-timeseries/1 JSONL series (written by
// the telemetry sampler, docs/OBSERVABILITY.md) into per-cycle tables and
// flag anomalous cycles.
//
//   gridse_stats <timeseries.jsonl | telemetry-dir> [--out report.md]
//                [--mad-k K]
//
// The report is GitHub-flavoured markdown (append it to
// $GITHUB_STEP_SUMMARY in CI). A cycle is flagged when any of:
//   latency    — cycle total is a robust outlier (median ± K·MAD, K=5)
//   iterations — per-cycle Gauss-Newton iteration delta is a robust outlier
//   retries    — exchange.retries delta exceeds the typical cycle (burst)
//   degraded   — the combine ran without one or more subsystems
//   slo        — the configured cycle deadline was missed
//   remap      — cluster membership changed (participants or dead set)
//
// When given a directory the tool reads <dir>/timeseries.jsonl and also
// lists any flight-<cycle>.json post-mortems the flight recorder dropped.
// Exit codes: 0 = report written (anomalies are informational), 2 = bad
// usage or unreadable/invalid input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/trace/json_mini.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

namespace fs = std::filesystem;
using gridse::obs::jsonm::Value;

/// One parsed "cycle" record (interval records are skipped: they overlap
/// the cycle deltas by design and would double-count).
struct CycleRow {
  std::int64_t cycle = -1;
  std::int64_t epoch = -1;
  std::size_t participants = 0;
  std::vector<std::int64_t> degraded;
  std::vector<std::int64_t> dead;
  double step1_ms = 0.0;
  double exchange_ms = 0.0;
  double step2_ms = 0.0;
  double combine_ms = 0.0;
  double total_ms = 0.0;
  double iterations = 0.0;  ///< Gauss-Newton iteration delta this cycle
  double retries = 0.0;     ///< exchange.retries delta this cycle
  bool slo_missed = false;
  std::vector<std::string> flags;  ///< anomaly labels, filled by analyze()
};

double number_at(const Value& obj, const char* key, double fallback = 0.0) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::vector<std::int64_t> int_array_at(const Value& obj, const char* key) {
  std::vector<std::int64_t> out;
  const Value* v = obj.find(key);
  if (v != nullptr && v->is_array()) {
    for (const Value& item : v->array) {
      out.push_back(static_cast<std::int64_t>(item.number));
    }
  }
  return out;
}

/// Counter delta by name from the record's sparse "counters" object.
double counter_at(const Value& record, const std::string& name) {
  const Value* counters = record.find("counters");
  if (counters == nullptr) {
    return 0.0;
  }
  const Value* v = counters->find(name);
  return v != nullptr ? v->number : 0.0;
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  return xs[mid];
}

/// Median absolute deviation — the robust spread estimate the outlier test
/// is built on. Not scaled to sigma; the K threshold absorbs the constant.
double mad_of(const std::vector<double>& xs, double median) {
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (const double x : xs) {
    dev.push_back(std::fabs(x - median));
  }
  return median_of(std::move(dev));
}

/// Robust outlier test: |x - median| > K·MAD. A degenerate spread (MAD = 0,
/// e.g. all-identical iteration counts) falls back to a relative band so a
/// single wild cycle in an otherwise flat series is still caught.
bool is_outlier(double x, double median, double mad, double k) {
  if (mad > 0.0) {
    return std::fabs(x - median) > k * mad;
  }
  return median > 0.0 && std::fabs(x - median) > 0.5 * median;
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", ms);
  return buf;
}

std::string join_ints(const std::vector<std::int64_t>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) {
      out += " ";
    }
    out += std::to_string(xs[i]);
  }
  return out.empty() ? "-" : out;
}

std::string join_flags(const std::vector<std::string>& flags) {
  std::string out;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += flags[i];
  }
  return out.empty() ? "-" : out;
}

/// Fill each row's anomaly flags from the whole series.
void analyze(std::vector<CycleRow>& rows, double k) {
  std::vector<double> totals;
  std::vector<double> iters;
  std::vector<double> retries;
  totals.reserve(rows.size());
  for (const CycleRow& r : rows) {
    totals.push_back(r.total_ms);
    iters.push_back(r.iterations);
    retries.push_back(r.retries);
  }
  const double total_med = median_of(totals);
  const double total_mad = mad_of(totals, total_med);
  const double iter_med = median_of(iters);
  const double iter_mad = mad_of(iters, iter_med);
  const double retry_med = median_of(retries);

  std::size_t prev_participants = rows.empty() ? 0 : rows[0].participants;
  std::vector<std::int64_t> prev_dead;
  for (CycleRow& r : rows) {
    if (is_outlier(r.total_ms, total_med, total_mad, k)) {
      r.flags.push_back("latency");
    }
    if (is_outlier(r.iterations, iter_med, iter_mad, k)) {
      r.flags.push_back("iterations");
    }
    // Retry burst: meaningfully above the typical cycle. With a quiet
    // baseline (median 0) any retry is a burst.
    if (r.retries > std::max(retry_med * 3.0, retry_med + 2.0) ||
        (retry_med == 0.0 && r.retries > 0.0)) {
      r.flags.push_back("retries");
    }
    if (!r.degraded.empty()) {
      r.flags.push_back("degraded");
    }
    if (r.slo_missed) {
      r.flags.push_back("slo");
    }
    // Membership *changes* only — a dead cluster that stays dead shows in
    // the table column but does not re-flag every following cycle.
    if (r.participants != prev_participants || r.dead != prev_dead) {
      r.flags.push_back("remap");
    }
    prev_participants = r.participants;
    prev_dead = r.dead;
  }
}

int run(int argc, char** argv) {
  std::string input;
  std::string out_path = "telemetry_report.md";
  double mad_k = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--mad-k" && i + 1 < argc) {
      mad_k = gridse::parse_double("--mad-k", argv[++i], "a number");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: gridse_stats <timeseries.jsonl | telemetry-dir> "
                   "[--out report.md] [--mad-k K]\n");
      return 2;
    } else {
      input = arg;
    }
  }
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: gridse_stats <timeseries.jsonl | telemetry-dir> "
                 "[--out report.md] [--mad-k K]\n");
    return 2;
  }

  // Directory input: the sampler's layout. Pick up the series plus any
  // flight-recorder post-mortems next to it.
  std::vector<std::string> flights;
  fs::path series = input;
  if (fs::is_directory(series)) {
    for (const auto& entry : fs::directory_iterator(series)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("flight-", 0) == 0 &&
          entry.path().extension() == ".json") {
        flights.push_back(name);
      }
    }
    std::sort(flights.begin(), flights.end());
    series /= "timeseries.jsonl";
  }
  std::ifstream in(series);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", series.string().c_str());
    return 2;
  }

  std::string schema = "?";
  std::size_t intervals = 0;
  std::vector<CycleRow> rows;
  std::map<std::string, double> counter_totals;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    Value record;
    try {
      record = gridse::obs::jsonm::parse(line);
    } catch (const gridse::Error& e) {
      std::fprintf(stderr, "%s:%zu: %s\n", series.string().c_str(), lineno,
                   e.what());
      return 2;
    }
    if (const Value* s = record.find("schema"); s != nullptr) {
      schema = s->text;  // header record
      continue;
    }
    const Value* kind = record.find("kind");
    if (kind == nullptr || kind->text == "interval") {
      intervals += kind != nullptr;
      continue;
    }
    CycleRow row;
    row.cycle = static_cast<std::int64_t>(number_at(record, "cycle", -1));
    row.epoch = static_cast<std::int64_t>(number_at(record, "epoch", -1));
    row.participants = int_array_at(record, "participants").size();
    row.degraded = int_array_at(record, "degraded_subsystems");
    row.dead = int_array_at(record, "dead_clusters");
    if (const Value* phases = record.find("phase_seconds");
        phases != nullptr) {
      row.step1_ms = number_at(*phases, "step1") * 1e3;
      row.exchange_ms = number_at(*phases, "exchange") * 1e3;
      row.step2_ms = number_at(*phases, "step2") * 1e3;
      row.combine_ms = number_at(*phases, "combine") * 1e3;
      row.total_ms = number_at(*phases, "total") * 1e3;
    }
    if (const Value* hists = record.find("histograms"); hists != nullptr) {
      if (const Value* gn = hists->find("wls.gauss_newton_iterations");
          gn != nullptr) {
        row.iterations = number_at(*gn, "sum");
      }
    }
    row.retries = counter_at(record, "exchange.retries");
    if (const Value* missed = record.find("slo_deadline_missed");
        missed != nullptr) {
      row.slo_missed = missed->boolean;
    }
    if (const Value* counters = record.find("counters"); counters != nullptr) {
      for (const auto& [name, delta] : counters->object) {
        counter_totals[name] += delta.number;
      }
    }
    rows.push_back(std::move(row));
  }
  if (schema != "gridse-timeseries/1") {
    std::fprintf(stderr, "'%s' is not a gridse-timeseries/1 file (schema %s)\n",
                 series.string().c_str(), schema.c_str());
    return 2;
  }
  analyze(rows, mad_k);

  std::size_t anomalous = 0;
  for (const CycleRow& r : rows) {
    anomalous += !r.flags.empty();
  }

  std::string md;
  md += "## Telemetry report\n\n";
  md += "- series: `" + series.string() + "` (" + schema + ")\n";
  md += "- cycles: " + std::to_string(rows.size());
  if (intervals > 0) {
    md += " (+" + std::to_string(intervals) + " wall-clock interval samples)";
  }
  md += "\n- anomalous cycles: " + std::to_string(anomalous) + "\n";
  md += "- slo.cycle_deadline_missed: " +
        std::to_string(static_cast<std::int64_t>(
            counter_totals["slo.cycle_deadline_missed"])) +
        "\n";
  if (!flights.empty()) {
    md += "- flight recordings:";
    for (const std::string& f : flights) {
      md += " `" + f + "`";
    }
    md += "\n";
  }
  md += "\n| cycle | epoch | parts | total ms | step1 | exchange | step2 | "
        "combine | GN iters | retries | degraded | dead | flags |\n";
  md += "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (const CycleRow& r : rows) {
    md += "| " + std::to_string(r.cycle);
    md += " | " + (r.epoch >= 0 ? std::to_string(r.epoch) : std::string("-"));
    md += " | " + std::to_string(r.participants);
    md += " | " + fmt_ms(r.total_ms);
    md += " | " + fmt_ms(r.step1_ms);
    md += " | " + fmt_ms(r.exchange_ms);
    md += " | " + fmt_ms(r.step2_ms);
    md += " | " + fmt_ms(r.combine_ms);
    md += " | " + std::to_string(static_cast<std::int64_t>(r.iterations));
    md += " | " + std::to_string(static_cast<std::int64_t>(r.retries));
    md += " | " + join_ints(r.degraded);
    md += " | " + join_ints(r.dead);
    md += " | " + join_flags(r.flags) + " |\n";
  }
  if (anomalous > 0) {
    md += "\n### Anomalous cycles\n\n";
    for (const CycleRow& r : rows) {
      if (r.flags.empty()) {
        continue;
      }
      md += "- cycle " + std::to_string(r.cycle) + ": " +
            join_flags(r.flags) + " (total " + fmt_ms(r.total_ms) + " ms, " +
            std::to_string(static_cast<std::int64_t>(r.iterations)) +
            " GN iterations, " +
            std::to_string(static_cast<std::int64_t>(r.retries)) +
            " retries)\n";
    }
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
    return 2;
  }
  out << md;
  std::printf("wrote %s (%zu cycles, %zu anomalous)\n", out_path.c_str(),
              rows.size(), anomalous);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
