#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace gridse::runtime {

/// Bounded retry with exponential backoff and deterministic jitter, used by
/// MwClient::send when a cached connection fails mid-exchange.
struct RetryPolicy {
  /// Total send attempts including the first; 2 reproduces the historical
  /// single-reconnect behavior.
  int max_attempts = 2;
  /// First backoff sleep; doubled per retry up to backoff_max.
  std::chrono::milliseconds backoff_base{5};
  std::chrono::milliseconds backoff_max{500};
  /// Fraction of each backoff randomized away ([0, 1]); breaks retry
  /// synchronization between clients without losing determinism (the jitter
  /// is a hash of seed, client and attempt).
  double jitter = 0.5;
  std::uint64_t seed = 0x5eedULL;

  /// Sleep before retry number `attempt` (0-based: the sleep between the
  /// first failure and the second attempt). `salt` decorrelates independent
  /// retry sequences (client id, per-client counter).
  [[nodiscard]] std::chrono::milliseconds backoff(int attempt,
                                                  std::uint64_t salt) const;
};

/// Cross-cycle recovery knobs: the heartbeat failure detector, checkpoint
/// warm-restart, and remapping after confirmed cluster loss (see
/// docs/RESILIENCE.md "Recovery & remapping"). Default **off**: with
/// `enabled = false` the DSE driver and DseSystem behave exactly as before
/// this layer existed.
struct RecoveryConfig {
  bool enabled = false;
  /// Spacing between heartbeat rounds at the start of each cycle.
  std::chrono::milliseconds heartbeat_period{20};
  /// Total budget for collecting peers' heartbeats (and the coordinator's
  /// membership broadcast). A peer with zero beats inside this window is
  /// observed dead; some-but-not-all beats observed is suspect.
  std::chrono::milliseconds heartbeat_timeout{1000};
  /// Beats sent per cycle; >= 2 distinguishes suspect from dead.
  int heartbeat_rounds = 2;
  /// How many cycles a rejoining cluster waits after announce_rejoin before
  /// it is folded back into the participant set (the remap epoch).
  int rejoin_epoch = 1;
  /// Optional disk spill directory for estimator checkpoints; empty keeps
  /// the store purely in memory.
  std::string checkpoint_dir;
};

/// Per-cycle service-level objectives: a wall-clock deadline for the whole
/// cycle and optional per-phase budgets. A value of 0 disables that check.
/// Lives in core::DseOptions::slo, the one place the driver reads it.
/// Violations never alter control flow — they only emit
/// `slo.cycle_deadline_missed` / `slo.phase_budget_over` counters and trace
/// events (see docs/OBSERVABILITY.md, "Per-cycle telemetry").
struct SloConfig {
  std::chrono::milliseconds cycle_deadline{0};
  std::chrono::milliseconds step1_budget{0};
  std::chrono::milliseconds exchange_budget{0};
  std::chrono::milliseconds step2_budget{0};
  std::chrono::milliseconds combine_budget{0};

  /// True when at least one threshold is configured.
  [[nodiscard]] bool any() const {
    return cycle_deadline.count() > 0 || step1_budget.count() > 0 ||
           exchange_budget.count() > 0 || step2_budget.count() > 0 ||
           combine_budget.count() > 0;
  }
};

/// Per-cycle telemetry knobs (the time-series sampler and the degradation
/// flight recorder in src/obs/telemetry.hpp). Plain data here so the config
/// plumbing stays obs-free: a GRIDSE_OBS=OFF build still parses these, it
/// just never starts a sampler.
struct TelemetryConfig {
  /// Output directory for timeseries.jsonl / metrics.prom / flight-*.json.
  /// Empty = take GRIDSE_TELEMETRY_DIR; both empty = telemetry off.
  std::string dir;
  /// Wall-clock background sampling period for long phases; 0 = sample at
  /// cycle boundaries only.
  std::chrono::milliseconds sample_period{0};
  /// Cycle snapshots retained in the flight-recorder ring.
  int flight_ring = 16;
};

/// Topology-change replay (see docs/RESILIENCE.md "Topology events").
/// Plain data so the config plumbing stays fault/grid-free; DseSystem
/// interprets it.
struct TopologyConfig {
  /// Replay plan: inline JSON when it starts with '{', else a file path.
  /// Empty = take GRIDSE_TOPOLOGY_PLAN; both empty = replay off.
  std::string plan;
};

/// How the transports behave when peers misbehave, plus cross-cycle
/// recovery. Threaded from SystemConfig into the transports and the
/// supervisor; the exchange deadline is DseOptions::exchange_deadline.
struct ResilienceConfig {
  RetryPolicy send_retry;
  /// How long a MediciWorld barrier waits before declaring a peer lost.
  std::chrono::milliseconds barrier_timeout{120'000};
  /// Cross-cycle recovery (heartbeats, checkpoints, remap-after-loss).
  RecoveryConfig recovery;
};

/// The one blessed environment lookup: every GRIDSE_* variable read in the
/// tree goes through here (tools/gridse_check.py flags raw getenv calls
/// anywhere else), so configuration inputs stay greppable in one place.
/// Returns nullopt when the variable is unset OR empty — the two are
/// equivalent for every gridse knob.
std::optional<std::string> env_value(const char* name);

/// Centralized environment-value validation (every GRIDSE_*_MS / count /
/// flag variable goes through these — one parser, one error shape).
/// `raw` is the environment value; `name` only labels the error message.
/// All three throw gridse::InvalidInput on malformed input instead of
/// silently falling back.

/// Non-negative integer milliseconds.
std::chrono::milliseconds parse_env_ms(const std::string& name,
                                       const std::string& raw);
/// Integer >= `min_value`.
int parse_env_int(const std::string& name, const std::string& raw,
                  int min_value);
/// Boolean: accepts 0/1/on/off/true/false (case-sensitive, lowercase).
bool parse_env_flag(const std::string& name, const std::string& raw);

/// `base` with environment overrides applied:
///   GRIDSE_BARRIER_TIMEOUT_MS                                (ms)
///   GRIDSE_RECOVERY                                          (flag)
///   GRIDSE_HEARTBEAT_PERIOD_MS, GRIDSE_HEARTBEAT_TIMEOUT_MS  (ms)
///   GRIDSE_HEARTBEAT_ROUNDS  (int >= 1), GRIDSE_REJOIN_EPOCH (int >= 1)
///   GRIDSE_CHECKPOINT_DIR                                    (path)
/// Throws gridse::InvalidInput on unparsable values.
ResilienceConfig with_env_overrides(ResilienceConfig base);

/// `base` with environment overrides applied:
///   GRIDSE_TELEMETRY_DIR                                   (path)
///   GRIDSE_TELEMETRY_SAMPLE_MS                             (ms)
///   GRIDSE_FLIGHT_RING                                     (int >= 1)
/// Throws gridse::InvalidInput on unparsable values.
TelemetryConfig with_env_overrides(TelemetryConfig base);

/// `base` with environment overrides applied:
///   GRIDSE_CYCLE_DEADLINE_MS                               (ms)
///   GRIDSE_PHASE_BUDGET_STEP1_MS, GRIDSE_PHASE_BUDGET_EXCHANGE_MS,
///   GRIDSE_PHASE_BUDGET_STEP2_MS, GRIDSE_PHASE_BUDGET_COMBINE_MS  (ms)
/// Throws gridse::InvalidInput on unparsable values.
SloConfig with_env_overrides(SloConfig base);

/// `base` (the configured exchange deadline) overridden by
/// GRIDSE_EXCHANGE_DEADLINE_MS (ms) when that is set. Throws
/// gridse::InvalidInput on an unparsable value.
std::chrono::milliseconds exchange_deadline_with_env(
    std::chrono::milliseconds base);

/// `base` with environment overrides applied:
///   GRIDSE_TOPOLOGY_PLAN                         (inline JSON or path)
TopologyConfig with_env_overrides(TopologyConfig base);

}  // namespace gridse::runtime
