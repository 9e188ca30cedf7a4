#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/dse_driver.hpp"
#include "core/supervisor.hpp"
#include "fault/topology_replay.hpp"
#include "grid/powerflow.hpp"
#include "grid/topology.hpp"
#include "io/synthetic.hpp"
#include "mapping/mapper.hpp"
#include "mapping/redistribution.hpp"
#include "runtime/resilience.hpp"

#if GRIDSE_OBS
namespace gridse::obs {
class TelemetrySampler;
}  // namespace gridse::obs
#endif

namespace gridse::core {

/// Which transport carries the estimator-to-estimator traffic.
enum class Transport {
  kInproc,        ///< in-process channels (fast, deterministic)
  kMedici,        ///< TCP through MeDICi pipeline relays (paper's data path)
  kMediciDirect,  ///< MwClient direct TCP (paper's "w/o MeDICi" mode)
};

/// Parse "inproc" | "medici" | "direct"; throws InvalidInput otherwise.
Transport parse_transport(const std::string& name);

/// How the "true" operating state the measurements are drawn from is
/// produced. Full-Newton AC is exact but its per-frame cost is prohibitive
/// at the 10k+ bus scale tiers; kDcLinearized takes sparse DC angles plus
/// setpoint-anchored magnitudes with a small deterministic jitter. That
/// truth needn't satisfy AC power balance — measurements are h(x_true) +
/// noise either way, so the estimation problem stays well posed.
enum class TruthMode { kAcPowerFlow, kDcLinearized };

/// End-to-end configuration of the prototype system (paper Fig. 1).
struct SystemConfig {
  mapping::MappingOptions mapping;          ///< clusters, balance tolerance
  mapping::WeightModelParams weight_model;  ///< Expressions (1)–(5)
  /// DSE options. dse.exchange_deadline and the dse.slo thresholds are
  /// resolved against GRIDSE_EXCHANGE_DEADLINE_MS, GRIDSE_CYCLE_DEADLINE_MS
  /// and GRIDSE_PHASE_BUDGET_*_MS at construction (env wins).
  DseOptions dse;
  grid::MeasurementPlan plan;  ///< SCADA/PMU synthesis (PMUs auto-placed)
  TruthMode truth_mode = TruthMode::kAcPowerFlow;
  Transport transport = Transport::kInproc;
  /// Fault-handling knobs: send retry/backoff, barrier timeout, recovery.
  /// Resolved against GRIDSE_BARRIER_TIMEOUT_MS and the recovery variables
  /// at construction (env wins).
  runtime::ResilienceConfig resilience;
  std::uint64_t seed = 1;
  /// Directory for per-rank distributed-trace files, flushed when the
  /// system is destroyed (see docs/OBSERVABILITY.md). Empty = take the
  /// GRIDSE_TRACE_DIR environment variable; both empty = no trace files.
  /// Ignored (no files, no overhead) when built with GRIDSE_OBS=OFF.
  std::string trace_dir;
  /// Per-cycle telemetry: time-series sampler, live exposition file,
  /// degradation flight recorder (docs/OBSERVABILITY.md). Resolved against
  /// GRIDSE_TELEMETRY_* at construction (env wins). An empty directory
  /// (config and GRIDSE_TELEMETRY_DIR both unset) disables the sampler; so
  /// does a GRIDSE_OBS=OFF build (no files, no overhead).
  runtime::TelemetryConfig telemetry;
  /// Optional system-load multiplier per frame time (e.g. a diurnal curve).
  /// When set, each run_cycle re-solves the power flow at the scaled
  /// operating point, so the DSE tracks a moving state — the paper's
  /// real-time tracking setting. Null = static operating point.
  std::function<double(double time_sec)> load_profile;
  /// Topology-change replay (see docs/RESILIENCE.md, "Topology events").
  /// Resolved against GRIDSE_TOPOLOGY_PLAN at construction (env wins). A
  /// non-empty plan (inline JSON or a file path) enables replay, which
  /// requires truth_mode == kDcLinearized: the island-aware DC truth
  /// degrades gracefully where the AC Newton solve would go singular.
  runtime::TopologyConfig topology;
};

/// What the topology layer did in one cycle (all defaults when replay is
/// off and no manual events were applied).
struct TopologyCycleInfo {
  /// Replay events applied at the top of this cycle (dropped ones excluded).
  int events_applied = 0;
  /// Branches whose live status flipped this cycle (sorted, deduplicated).
  std::vector<std::size_t> changed_branches;
  /// Electrical islands after this cycle's events (0 = not evaluated).
  int num_islands = 0;
  /// Measurements dropped by the de-energization mask this cycle.
  std::size_t masked_measurements = 0;
  /// Pseudo measurements appended (dead-bus pins + angle anchors).
  std::size_t anchors_added = 0;
  /// Always false: the decomposition is fixed at construction. Kept for
  /// bench/cycle's `topology.repartitions` metric, which reads it.
  bool repartitioned = false;
};

/// Everything one DSE cycle produced, from mapping to solution quality.
struct CycleReport {
  mapping::MappingResult map_step1;
  mapping::MappingResult map_step2;
  mapping::RedistributionPlan redistribution;
  /// Rank 0's view (state identical on all ranks), except `traces`: every
  /// rank's, merged into one per subsystem, ascending.
  DseResult dse;
  /// Accuracy vs the true operating state the measurements were drawn from.
  double max_vm_error = 0.0;
  double max_angle_error = 0.0;
  /// Cluster ids that hosted this cycle (index == comm rank). Without
  /// recovery: 0..num_clusters-1; after a cluster loss the survivors only.
  std::vector<int> participants;
  /// Subsystems whose previous-cycle cluster died and were migrated to a
  /// survivor before this cycle's mapping (recovery only).
  std::vector<int> migrated_subsystems;
  /// Topology replay facts for this cycle.
  TopologyCycleInfo topology;
};

/// Facade wiring the whole prototype together: decomposition + sensitivity
/// analysis (the preliminary step, done once at construction: the
/// decomposition never changes), per-frame mapping via the weight model,
/// measurement synthesis, and the distributed run over the chosen
/// transport. One instance models one deployed system; call run_cycle once
/// per SCADA time frame.
class DseSystem {
 public:
  /// `generated` supplies the network and its ground-truth decomposition.
  /// PMU placement: if the config's plan has no explicit PMUs, one PMU is
  /// placed at the lowest-numbered bus of every subsystem (each local
  /// estimation needs a synchronized angle reference).
  DseSystem(io::GeneratedCase generated, SystemConfig config);

  /// Flushes the distributed trace (if a trace directory is configured).
  ~DseSystem();

  DseSystem(const DseSystem&) = delete;
  DseSystem& operator=(const DseSystem&) = delete;

  /// Execute one full cycle at time-frame anchor `time_sec`:
  /// power-flow truth → measurements → map (Step 1, repartitioned from the
  /// previous cycle) → DSE Step 1 → remap (Step 2) → exchange → Step 2 →
  /// combine. Deterministic given the config seed and cycle count.
  CycleReport run_cycle(double time_sec);

  /// The centralized reference on the same measurements as the last cycle:
  /// one WLS over the whole network, solved by the same PCG as Step 1.
  [[nodiscard]] estimation::WlsResult centralized_reference() const;

  /// Cross-cycle recovery controls (require resilience.recovery.enabled;
  /// they throw otherwise). kill_cluster simulates/records a confirmed
  /// cluster loss: the next run_cycle runs on the survivors with orphaned
  /// subsystems migrated. announce_rejoin folds a recovered cluster back in
  /// at the next remap epoch, warm-started from stored checkpoints.
  void kill_cluster(int cluster);
  void announce_rejoin(int cluster);
  [[nodiscard]] bool recovery_enabled() const { return supervisor_ != nullptr; }
  /// The recovery coordinator, or nullptr when recovery is disabled.
  [[nodiscard]] Supervisor* supervisor() { return supervisor_.get(); }
  [[nodiscard]] const Supervisor* supervisor() const {
    return supervisor_.get();
  }

  /// Topology replay controls. apply_topology_event pushes one switching
  /// event outside any replay plan (operator action); it requires
  /// truth_mode == kDcLinearized (throws InvalidInput otherwise) and takes
  /// effect from the next run_cycle. replay() is null without a plan.
  std::vector<std::size_t> apply_topology_event(
      const grid::TopologyEvent& event);
  [[nodiscard]] bool topology_active() const {
    return live_topology_ != nullptr;
  }
  [[nodiscard]] const grid::LiveTopology* live_topology() const {
    return live_topology_.get();
  }
  [[nodiscard]] const fault::TopologyReplayHarness* replay() const {
    return replay_.get();
  }
  /// The replay determinism witness: applied-event log as JSON ("[]"
  /// without a plan). Bit-identical across same-seed runs/thread counts.
  [[nodiscard]] std::string replay_log_json() const {
    return replay_ != nullptr ? replay_->log_to_json() : std::string("[]");
  }
  [[nodiscard]] const decomp::Decomposition& decomposition() const {
    return decomposition_;
  }
  [[nodiscard]] const grid::Network& network() const {
    return generated_.kase.network;
  }
  [[nodiscard]] const grid::GridState& true_state() const {
    return true_state_;
  }
  /// The DC truth's B′ slot: plan and factor, refactored only on frames
  /// whose B′ differs from the factored one. Its plan is null under AC
  /// truth and is re-analyzed only when switching changes B′'s pattern.
  [[nodiscard]] const grid::BprimeFactor& truth_bprime() const {
    return truth_bprime_;
  }
  /// The AC truth's B′ and B″ slot, refactored only on frames whose Ybus
  /// differs from the factored one (never under DC truth).
  [[nodiscard]] const grid::PowerFlowFactors& truth_decoupled() const {
    return truth_decoupled_;
  }
  [[nodiscard]] const grid::MeasurementSet& last_measurements() const {
    return last_measurements_;
  }

 private:
  /// Collect the subsystems this cycle's switching touched into
  /// flat_start_, drop their cached plans and models, and refresh the
  /// energization snapshot. Runs once per cycle while topology is active.
  void react_to_topology(std::span<const std::size_t> changed_branches,
                         const grid::IslandReport& islands);
  /// Lazily create live_topology_ (and validate truth_mode).
  void ensure_live_topology();

  io::GeneratedCase generated_;
  SystemConfig config_;
  /// Built and sensitivity-analysed once, in the constructor.
  const decomp::Decomposition decomposition_;
  grid::GridState true_state_;
  /// The one B′ slot every DC truth solve of this system goes through.
  grid::BprimeFactor truth_bprime_;
  /// The one B′/B″ slot every AC truth solve of this system goes through.
  grid::PowerFlowFactors truth_decoupled_;
  std::unique_ptr<grid::MeasurementGenerator> generator_;
  Rng rng_;
  grid::MeasurementSet last_measurements_;
  /// Previous Step-2 assignment in *cluster-id* space (stable across remap
  /// epochs; projected onto the participant set before each repartition).
  std::optional<std::vector<graph::PartId>> previous_assignment_;
  /// Present iff resilience.recovery.enabled.
  std::unique_ptr<Supervisor> supervisor_;
  /// Live switching state + incrementally patched Ybus; present once
  /// topology replay (or apply_topology_event) is in play.
  std::unique_ptr<grid::LiveTopology> live_topology_;
  /// Present iff config_.topology.plan resolved non-empty.
  std::unique_ptr<fault::TopologyReplayHarness> replay_;
  /// Last combined estimate — the prior Step 1 tracks from, and the one for
  /// angle anchors. Empty before the first cycle.
  grid::GridState last_estimate_;
  /// Whether the next cycle's Step 1 may start from last_estimate_: the
  /// cycle that produced it converged everywhere and was not degraded.
  bool track_next_cycle_ = false;
  /// This cycle's subsystems whose switching state changed (react_to_
  /// topology's touched set). Their Step 1 starts flat, from neither the
  /// prior nor a checkpoint, since both may hold a restored bus at |V| ≈ 0.
  std::vector<int> flat_start_;
  /// Previous cycle's per-bus energization, to detect flips (a flip changes
  /// the bus's measurement pattern → its subsystem's plan is invalidated).
  std::vector<char> bus_energized_prev_;
  /// Branch flips from apply_topology_event, folded into the next cycle's
  /// changed-branch set (so manual events drive the same reaction path).
  std::vector<std::size_t> pending_manual_changes_;
  /// Atomic: the supervisor's alert sink stamps triggers with the current
  /// cycle from whatever thread an operator kill/rejoin lands on.
  std::atomic<std::int64_t> cycle_index_{0};
#if GRIDSE_OBS
  /// Present iff a telemetry directory is configured. Reset explicitly at
  /// the top of ~DseSystem: a pending flight flush must drain the trace
  /// buffer before the end-of-run trace flush does.
  std::unique_ptr<obs::TelemetrySampler> sampler_;
#endif
};

}  // namespace gridse::core
