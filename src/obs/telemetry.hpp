#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/debug_sync.hpp"
#include "obs/metrics.hpp"
#include "runtime/resilience.hpp"

namespace gridse::obs {

/// Cycle-boundary context stamped into every time-series record: which
/// cycle, which membership epoch, who participated, and what degraded.
/// Produced by DseSystem at the end of each run_cycle.
struct CycleStamp {
  std::int64_t cycle = 0;
  /// Supervisor remap epoch; -1 when recovery is disabled.
  std::int64_t epoch = -1;
  /// Cluster ids that hosted the cycle (index == comm rank).
  std::vector<int> participants;
  /// Subsystem ids whose Step 2 ran degraded this cycle.
  std::vector<int> degraded_subsystems;
  /// Cluster ids currently marked dead by the supervisor.
  std::vector<int> dead_clusters;
  double step1_seconds = 0.0;
  double exchange_seconds = 0.0;
  double step2_seconds = 0.0;
  double combine_seconds = 0.0;
  double total_seconds = 0.0;
};

/// One degradation trigger noted between cycle boundaries; flushed into the
/// next flight-<cycle>.json.
struct FlightTrigger {
  std::string kind;  ///< cluster_dead | remap | rejoin | degraded_combine
  int cluster = -1;  ///< affected cluster, -1 when not cluster-scoped
  std::int64_t cycle = 0;
};

/// Per-cycle telemetry time series over a MetricsRegistry (see
/// docs/OBSERVABILITY.md, "Per-cycle telemetry & flight recorder").
///
/// on_cycle_end() snapshots the registry, computes what changed since the
/// previous cycle boundary — counter deltas, histogram count/sum/bucket
/// increments, span count/time increments, current gauge values — and
/// appends one `gridse-timeseries/1` JSONL record to `<dir>/timeseries.jsonl`
/// stamped with the CycleStamp. After every record the full registry state
/// is re-rendered to `<dir>/metrics.prom` (Prometheus text exposition,
/// atomically replaced) so an external scrape or operator `cat` reads a
/// consistent live view while the system runs.
///
/// An optional background thread emits `kind:"interval"` records every
/// sample_period measuring progress *within* the current cycle (deltas
/// against the last cycle boundary, baseline not advanced), so a stalled
/// phase is visible before the cycle completes. Cycle records therefore
/// keep the invariant: summing their deltas reproduces the end-of-run
/// aggregate exactly.
///
/// The flight recorder keeps the last `flight_ring` cycle records in memory.
/// note_trigger() (wired to supervisor death/remap/rejoin alerts and
/// degraded combines) marks the cycle; the next on_cycle_end (or the
/// destructor) force-flushes the ring, the triggers, and the trace buffer
/// into a self-contained `flight-<cycle>.json` post-mortem artifact.
///
/// Thread-safe. All file I/O happens under the sampler mutex, off the
/// metrics hot path (instrument updates never block on the sampler).
class TelemetrySampler {
 public:
  /// `config` comes resolved against the environment (DseSystem applies
  /// runtime::with_env_overrides); its directory must be non-empty, and a
  /// flight ring below 1 keeps one record.
  explicit TelemetrySampler(runtime::TelemetryConfig config,
                            MetricsRegistry& registry =
                                MetricsRegistry::global());
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Record the cycle that just finished and advance the delta baseline.
  /// Flushes a flight file when triggers were noted since the last call.
  void on_cycle_end(const CycleStamp& stamp);

  /// Note a degradation trigger (thread-safe, callable from supervisor
  /// alert callbacks mid-cycle). The flight flush itself is deferred to the
  /// next cycle boundary so the triggering cycle's record is in the ring.
  void note_trigger(const char* kind, int cluster, std::int64_t cycle);

  /// Flush any pending triggers immediately (also runs in the destructor —
  /// a trigger on the final cycle still produces its flight file).
  void flush_pending_flights();

  [[nodiscard]] std::size_t cycles_recorded() const;
  [[nodiscard]] std::size_t flights_written() const;
  [[nodiscard]] const std::string& dir() const { return config_.dir; }

 private:
  struct RingEntry {
    std::int64_t cycle = 0;
    std::vector<int> degraded_subsystems;
    std::vector<int> dead_clusters;
    std::string json;  ///< the rendered cycle record
  };

  /// Render one record ("cycle" or "interval") of cur minus baseline_.
  [[nodiscard]] std::string render_record_locked(
      const char* kind, const Snapshot& cur,
      const CycleStamp* stamp) GRIDSE_REQUIRES(mutex_);
  void write_line_locked(const std::string& line) GRIDSE_REQUIRES(mutex_);
  void write_exposition_locked(const Snapshot& cur) GRIDSE_REQUIRES(mutex_);
  void flush_pending_locked() GRIDSE_REQUIRES(mutex_);
  void sampler_loop();

  runtime::TelemetryConfig config_;
  MetricsRegistry& registry_;
  mutable analysis::Mutex mutex_{"TelemetrySampler::mutex_"};
  Snapshot baseline_ GRIDSE_GUARDED_BY(mutex_);
  std::ofstream out_ GRIDSE_GUARDED_BY(mutex_);
  std::deque<RingEntry> ring_ GRIDSE_GUARDED_BY(mutex_);
  std::vector<FlightTrigger> pending_ GRIDSE_GUARDED_BY(mutex_);
  std::int64_t last_cycle_ GRIDSE_GUARDED_BY(mutex_) = -1;
  std::size_t cycles_recorded_ GRIDSE_GUARDED_BY(mutex_) = 0;
  std::size_t flights_written_ GRIDSE_GUARDED_BY(mutex_) = 0;
  bool stop_ GRIDSE_GUARDED_BY(mutex_) = false;
  analysis::ConditionVariable stop_cv_;
  std::thread sampler_thread_;
};

/// Prometheus text exposition of a snapshot: counters, gauges (+ _max),
/// histograms (_bucket/_count/_sum), spans (as histograms + _total_seconds).
/// Metric names are sanitized to [a-zA-Z0-9_:] and prefixed `gridse_`.
[[nodiscard]] std::string exposition_text(const Snapshot& snapshot);

}  // namespace gridse::obs
