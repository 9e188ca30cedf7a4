#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/assert.hpp"
#include "obs/trace/json_mini.hpp"
#include "obs/trace/trace.hpp"
#include "util/error.hpp"

namespace gridse::obs {
namespace fs = std::filesystem;
namespace {

/// The obs layer sits below util in the link order (gridse_util links
/// gridse_obs), so GRIDSE_WARN is off limits here; telemetry failures are
/// non-fatal and go straight to stderr.
void warn(const std::string& message) {
  std::fprintf(stderr, "gridse telemetry: %s\n", message.c_str());
}

/// Shortest round-trippable decimal for JSON / exposition values.
std::string fmt_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string quoted(const std::string& raw) {
  return "\"" + jsonm::escape(raw) + "\"";
}

std::string int_list(const std::vector<int>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

/// Replace the destination file atomically so concurrent readers never see
/// a half-written exposition or flight document.
void write_file_atomic(const fs::path& target, const std::string& content) {
  const fs::path tmp = target.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << content;
    if (!out) {
      throw Error("telemetry: write to " + tmp.string() + " failed");
    }
  }
  fs::rename(tmp, target);
}

/// Prometheus metric name: `gridse_` + the dotted name with every character
/// outside [a-zA-Z0-9_:] mapped to '_'.
std::string prom_name(const std::string& name, const char* prefix) {
  std::string out = prefix;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void append_prom_histogram(std::ostringstream& out, const std::string& name,
                           const HistogramSnapshot& h) {
  out << "# TYPE " << name << " histogram\n";
  std::uint64_t cumulative = 0;
  for (const auto& [bound, count] : h.buckets) {
    cumulative += count;
    out << name << "_bucket{le=\""
        << (std::isinf(bound) ? std::string("+Inf") : fmt_double(bound))
        << "\"} " << cumulative << "\n";
  }
  out << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
  out << name << "_sum " << fmt_double(h.sum) << "\n";
  out << name << "_count " << h.count << "\n";
}

/// Histogram increment between two snapshots of the same (monotone)
/// histogram: count/sum deltas plus per-bucket count deltas. min/max are
/// not delta-able and are deliberately absent from time-series records.
std::string histogram_delta_json(const HistogramSnapshot* prev,
                                 const HistogramSnapshot& cur,
                                 std::uint64_t count_delta) {
  std::map<double, std::uint64_t> before;
  if (prev != nullptr) {
    for (const auto& [bound, count] : prev->buckets) {
      before[bound] = count;
    }
  }
  std::string buckets = "[";
  bool first = true;
  for (const auto& [bound, count] : cur.buckets) {
    const auto it = before.find(bound);
    const std::uint64_t delta =
        count - (it == before.end() ? 0 : it->second);
    if (delta == 0) continue;
    if (!first) buckets += ",";
    first = false;
    buckets += "[" + fmt_double(bound) + "," + std::to_string(delta) + "]";
  }
  buckets += "]";
  const double sum_delta = cur.sum - (prev != nullptr ? prev->sum : 0.0);
  return "{\"count\":" + std::to_string(count_delta) +
         ",\"sum\":" + fmt_double(sum_delta) + ",\"buckets\":" + buckets +
         "}";
}

}  // namespace

std::string exposition_text(const Snapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string p = prom_name(name, "gridse_");
    out << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string p = prom_name(name, "gridse_");
    out << "# TYPE " << p << " gauge\n" << p << " " << fmt_double(value)
        << "\n";
    const auto max_it = snapshot.gauge_maxima.find(name);
    if (max_it != snapshot.gauge_maxima.end()) {
      out << "# TYPE " << p << "_max gauge\n"
          << p << "_max " << fmt_double(max_it->second) << "\n";
    }
  }
  for (const auto& [name, h] : snapshot.histograms) {
    append_prom_histogram(out, prom_name(name, "gridse_"), h);
  }
  for (const auto& [name, span] : snapshot.spans) {
    const std::string p = prom_name(name, "gridse_span_");
    append_prom_histogram(out, p, span.latency);
    out << "# TYPE " << p << "_total_seconds counter\n"
        << p << "_total_seconds " << fmt_double(span.total_seconds) << "\n";
  }
  return out.str();
}

TelemetrySampler::TelemetrySampler(runtime::TelemetryConfig config,
                                   MetricsRegistry& registry)
    : config_(std::move(config)), registry_(registry) {
  GRIDSE_CHECK_MSG(!config_.dir.empty(),
                   "TelemetrySampler needs an output directory");
  config_.flight_ring = std::max(config_.flight_ring, 1);
  analysis::LockGuard lock(mutex_);
  try {
    fs::create_directories(config_.dir);
    out_.open(fs::path(config_.dir) / "timeseries.jsonl", std::ios::trunc);
  } catch (const std::exception& e) {
    warn("cannot open " + config_.dir + ": " + e.what());
  }
  if (out_.is_open()) {
    write_line_locked(
        "{\"schema\":\"gridse-timeseries/1\",\"flight_ring\":" +
        std::to_string(config_.flight_ring) + ",\"sample_period_ms\":" +
        std::to_string(config_.sample_period.count()) + "}");
  }
  baseline_ = registry_.snapshot();
  if (config_.sample_period.count() > 0) {
    sampler_thread_ = std::thread([this] { sampler_loop(); });
  }
}

TelemetrySampler::~TelemetrySampler() {
  if (sampler_thread_.joinable()) {
    {
      analysis::LockGuard lock(mutex_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    sampler_thread_.join();
  }
  flush_pending_flights();
}

void TelemetrySampler::on_cycle_end(const CycleStamp& stamp) {
  const Snapshot cur = registry_.snapshot();
  analysis::LockGuard lock(mutex_);
  const std::string record = render_record_locked("cycle", cur, &stamp);
  ring_.push_back(RingEntry{stamp.cycle, stamp.degraded_subsystems,
                            stamp.dead_clusters, record});
  while (ring_.size() > static_cast<std::size_t>(config_.flight_ring)) {
    ring_.pop_front();
  }
  baseline_ = cur;
  last_cycle_ = stamp.cycle;
  ++cycles_recorded_;
  write_line_locked(record);
  try {
    write_exposition_locked(cur);
  } catch (const std::exception& e) {
    warn(std::string("exposition write failed: ") + e.what());
  }
  if (!pending_.empty()) {
    flush_pending_locked();
  }
}

void TelemetrySampler::note_trigger(const char* kind, int cluster,
                                    std::int64_t cycle) {
  analysis::LockGuard lock(mutex_);
  pending_.push_back(FlightTrigger{kind, cluster, cycle});
}

void TelemetrySampler::flush_pending_flights() {
  analysis::LockGuard lock(mutex_);
  if (!pending_.empty()) {
    flush_pending_locked();
  }
}

std::size_t TelemetrySampler::cycles_recorded() const {
  analysis::LockGuard lock(mutex_);
  return cycles_recorded_;
}

std::size_t TelemetrySampler::flights_written() const {
  analysis::LockGuard lock(mutex_);
  return flights_written_;
}

std::string TelemetrySampler::render_record_locked(const char* kind,
                                                   const Snapshot& cur,
                                                   const CycleStamp* stamp) {
  std::ostringstream out;
  out << "{\"kind\":\"" << kind << "\"";
  if (stamp != nullptr) {
    out << ",\"cycle\":" << stamp->cycle << ",\"epoch\":" << stamp->epoch
        << ",\"participants\":" << int_list(stamp->participants)
        << ",\"degraded_subsystems\":" << int_list(stamp->degraded_subsystems)
        << ",\"dead_clusters\":" << int_list(stamp->dead_clusters)
        << ",\"phase_seconds\":{\"step1\":" << fmt_double(stamp->step1_seconds)
        << ",\"exchange\":" << fmt_double(stamp->exchange_seconds)
        << ",\"step2\":" << fmt_double(stamp->step2_seconds)
        << ",\"combine\":" << fmt_double(stamp->combine_seconds)
        << ",\"total\":" << fmt_double(stamp->total_seconds) << "}";
  } else {
    // Interval records measure progress inside the in-flight cycle; the
    // baseline is NOT advanced, so cycle records stay exact.
    out << ",\"cycle\":" << (last_cycle_ + 1);
  }

  bool slo_missed = false;
  out << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : cur.counters) {
    const auto it = baseline_.counters.find(name);
    const std::uint64_t delta =
        value - (it == baseline_.counters.end() ? 0 : it->second);
    if (delta == 0) continue;
    if (name == "slo.cycle_deadline_missed") slo_missed = true;
    if (!first) out << ",";
    first = false;
    out << quoted(name) << ":" << delta;
  }
  out << "}";

  out << ",\"gauges\":{";
  first = true;
  for (const auto& [name, value] : cur.gauges) {
    if (!first) out << ",";
    first = false;
    out << quoted(name) << ":" << fmt_double(value);
  }
  out << "}";

  out << ",\"histograms\":{";
  first = true;
  for (const auto& [name, h] : cur.histograms) {
    const auto it = baseline_.histograms.find(name);
    const HistogramSnapshot* prev =
        it == baseline_.histograms.end() ? nullptr : &it->second;
    const std::uint64_t count_delta =
        h.count - (prev != nullptr ? prev->count : 0);
    if (count_delta == 0) continue;
    if (!first) out << ",";
    first = false;
    out << quoted(name) << ":" << histogram_delta_json(prev, h, count_delta);
  }
  out << "}";

  out << ",\"spans\":{";
  first = true;
  for (const auto& [name, span] : cur.spans) {
    const auto it = baseline_.spans.find(name);
    const std::uint64_t prev_count =
        it == baseline_.spans.end() ? 0 : it->second.count;
    const double prev_seconds =
        it == baseline_.spans.end() ? 0.0 : it->second.total_seconds;
    const std::uint64_t count_delta = span.count - prev_count;
    if (count_delta == 0) continue;
    if (!first) out << ",";
    first = false;
    out << quoted(name) << ":{\"count\":" << count_delta << ",\"seconds\":"
        << fmt_double(span.total_seconds - prev_seconds) << "}";
  }
  out << "}";

  out << ",\"slo_deadline_missed\":" << (slo_missed ? "true" : "false")
      << "}";
  return out.str();
}

void TelemetrySampler::write_line_locked(const std::string& line) {
  if (!out_.is_open()) {
    return;
  }
  out_ << line << "\n";
  // Flush per record: the series must be readable while the system runs
  // (the live-exposition contract), and records are rare — one per cycle.
  out_.flush();
}

void TelemetrySampler::write_exposition_locked(const Snapshot& cur) {
  write_file_atomic(fs::path(config_.dir) / "metrics.prom",
                    exposition_text(cur));
}

void TelemetrySampler::flush_pending_locked() {
  std::int64_t cycle = pending_.front().cycle;
  for (const FlightTrigger& t : pending_) {
    cycle = std::max(cycle, t.cycle);
  }

  // Flush the trace ring and event log alongside the flight file: the
  // post-mortem is the last chance to capture them time-anchored.
  const fs::path trace_dir =
      fs::path(config_.dir) / ("flight-" + std::to_string(cycle) + "-trace");
  trace::FlushStats trace_stats;
  try {
    trace_stats = trace::write_trace_files(trace_dir.string());
  } catch (const std::exception& e) {
    warn(std::string("flight trace flush failed: ") + e.what());
  }

  std::set<int> dead;
  std::ostringstream triggers;
  triggers << "[";
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const FlightTrigger& t = pending_[i];
    if (i > 0) triggers << ",";
    triggers << "{\"kind\":" << quoted(t.kind) << ",\"cluster\":" << t.cluster
             << ",\"cycle\":" << t.cycle << "}";
    if (t.kind == "cluster_dead" && t.cluster >= 0) {
      dead.insert(t.cluster);
    }
  }
  triggers << "]";

  std::vector<int> degraded;
  if (!ring_.empty()) {
    degraded = ring_.back().degraded_subsystems;
    for (const int c : ring_.back().dead_clusters) {
      dead.insert(c);
    }
  }

  std::ostringstream doc;
  doc << "{\n  \"schema\": \"gridse-flight/1\",\n  \"cycle\": " << cycle
      << ",\n  \"triggers\": " << triggers.str() << ",\n  \"dead_clusters\": "
      << int_list(std::vector<int>(dead.begin(), dead.end()))
      << ",\n  \"degraded_subsystems\": " << int_list(degraded)
      << ",\n  \"trace\": {\"records\": " << trace_stats.records
      << ", \"events\": " << trace_stats.events << ", \"dir\": "
      << quoted(trace_dir.filename().string()) << "},\n  \"ring\": [\n";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    doc << "    " << ring_[i].json << (i + 1 < ring_.size() ? ",\n" : "\n");
  }
  doc << "  ]\n}\n";

  try {
    write_file_atomic(
        fs::path(config_.dir) / ("flight-" + std::to_string(cycle) + ".json"),
        doc.str());
    ++flights_written_;
  } catch (const std::exception& e) {
    warn(std::string("flight write failed: ") + e.what());
  }
  pending_.clear();
}

void TelemetrySampler::sampler_loop() {
  analysis::UniqueLock lock(mutex_);
  while (!stop_) {
    const bool stopped =
        stop_cv_.wait_for(lock, config_.sample_period, [this] {
          GRIDSE_ASSERT_HELD(mutex_);
          return stop_;
        });
    if (stopped) {
      break;
    }
    const Snapshot cur = registry_.snapshot();
    write_line_locked(render_record_locked("interval", cur, nullptr));
    try {
      write_exposition_locked(cur);
    } catch (const std::exception& e) {
      warn(std::string("exposition write failed: ") + e.what());
    }
  }
}

}  // namespace gridse::obs
