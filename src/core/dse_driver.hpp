#pragma once

#include <chrono>
#include <map>
#include <span>

#include "core/local_estimator.hpp"
#include "core/plan_registry.hpp"
#include "decomp/decomposition.hpp"
#include "graph/partition.hpp"
#include "grid/meas_generator.hpp"
#include "runtime/communicator.hpp"
#include "runtime/recovery.hpp"
#include "runtime/resilience.hpp"

namespace gridse::core {

/// Configuration of one distributed state estimation run.
struct DseOptions {
  LocalEstimatorOptions local;
  /// Worker threads per cluster master for hosted-subsystem parallelism
  /// (paper Fig. 1: the data processor dispatches to worker processors).
  int workers_per_cluster = 3;
  /// Step-2 exchange/re-evaluation rounds. The paper notes the iteration
  /// count "can be up-bounded by the diameter of the power system
  /// decomposition" [10]; 1 reproduces the prototype's single round, larger
  /// values propagate boundary information further before the combine.
  int step2_rounds = 1;
  /// Upper bound on waiting for each exchange message (redistribution,
  /// Step-2 pseudo fan-in, final combine, recovery report). 0 = wait
  /// forever (historical behavior: a lost peer hangs the cycle). A message
  /// that misses the deadline or arrives corrupt is recorded as lost and the
  /// cycle finishes degraded: a subsystem missing neighbour pseudo
  /// measurements re-solves Step 2 with Step-1-derived low-weight priors.
  /// DseSystem overrides it with GRIDSE_EXCHANGE_DEADLINE_MS when set.
  std::chrono::milliseconds exchange_deadline{0};
  /// Cross-cycle registry of per-subsystem solver caches and extracted
  /// models. Null = a fresh registry per run(), which still shares plans
  /// across the Gauss-Newton iterations and both steps of that cycle.
  /// Long-lived callers (DseSystem) pass a persistent registry and
  /// invalidate the subsystems a remap migrates or a switch touches.
  std::shared_ptr<PlanRegistry> plan_registry;
  /// Per-cycle SLO thresholds (cycle deadline + phase budgets). Checked on
  /// rank 0 after the cycle completes; violations emit `slo.*` counters and
  /// trace events but never change control flow. All-zero (the default)
  /// disables the checks; so does a GRIDSE_OBS=OFF build. DseSystem
  /// overrides each threshold with GRIDSE_CYCLE_DEADLINE_MS /
  /// GRIDSE_PHASE_BUDGET_*_MS when set.
  runtime::SloConfig slo;
};

/// Per-cycle recovery context, supplied by the Supervisor when cross-cycle
/// recovery is enabled (nullptr = the historical, recovery-free cycle).
/// Shared read-only by every rank of the in-process world; in a multi-node
/// deployment its contents would be part of the assignment broadcast.
struct DseRecoveryContext {
  runtime::HeartbeatSettings heartbeat;
  /// Monotone cycle index stamped into collected checkpoints.
  std::int64_t cycle = 0;
  /// Subsystem → checkpoint to restore before Step 1. Rank 0 ships each
  /// checkpoint over the wire to the subsystem's Step-1 host, which
  /// warm-starts from it (orphan migration, rejoin, or plain cross-cycle
  /// tracking).
  std::map<int, EstimatorCheckpoint> restore;
};

/// Where a frame's Step 1 starts (tracking): the previous frame's combined
/// estimate, which every rank already holds after that frame's combine, so
/// nothing extra goes over the wire. A hosted subsystem with no restored
/// checkpoint starts Gauss-Newton from its buses of `state` instead of a
/// flat profile — unless it is listed in `flat_start`.
struct TrackingPrior {
  /// System-wide estimate, global numbering, covering every bus.
  const grid::GridState& state;
  /// Subsystems that still start flat: their switching state changed since
  /// `state` was estimated, so it may hold a restored bus at |V| ≈ 0.
  std::span<const int> flat_start;
};

/// Recovery outputs of one cycle (embedded in DseResult).
struct DseRecoveryResult {
  /// False when the cycle ran without a recovery context.
  bool enabled = false;
  /// The consensus membership view produced by the phase-0 heartbeat.
  runtime::MembershipView membership;
  /// Subsystems this rank warm-started from restored checkpoints.
  int warm_started = 0;
  /// Fresh end-of-cycle checkpoints (rank 0 only; one per subsystem that
  /// solved on a responsive rank).
  std::vector<EstimatorCheckpoint> checkpoints;
  /// Encoded bytes of the gathered checkpoints (rank 0 only).
  std::size_t checkpoint_bytes = 0;
};

/// Per-subsystem execution trace.
struct SubsystemTrace {
  int subsystem = 0;
  int step1_rank = 0;
  int step2_rank = 0;
  LocalSolveInfo step1;
  LocalSolveInfo step2;
};

/// Result of one DSE cycle, identical on every rank.
struct DseResult {
  grid::GridState state;  ///< combined system-wide estimate (final step)
  bool all_converged = false;
  /// Phase wall-clock seconds as seen by this rank.
  double step1_seconds = 0.0;
  double exchange_seconds = 0.0;
  double step2_seconds = 0.0;
  double combine_seconds = 0.0;
  double total_seconds = 0.0;
  /// Payload bytes this rank sent during the cycle.
  std::size_t bytes_sent = 0;
  /// Traces of the subsystems this rank hosted in either step, ascending
  /// by subsystem; `step1` is blank where another rank ran Step 1, `step2`
  /// where another rank ran Step 2 (or it never ran).
  std::vector<SubsystemTrace> traces;
  /// Subsystems (cluster-wide, gathered through the combine) whose Step 2
  /// ran degraded; sorted by subsystem id. Empty on a healthy cycle.
  std::vector<DegradedStatus> degraded;
  /// Ranks whose combine payload never arrived within the deadline (their
  /// buses keep default values in `state`).
  std::vector<int> unresponsive_ranks;
  /// Cross-cycle recovery outputs (membership view, checkpoints); only
  /// populated when a DseRecoveryContext was passed to run().
  DseRecoveryResult recovery;
  /// True when any subsystem degraded or any rank went unresponsive.
  [[nodiscard]] bool degraded_mode() const {
    return !degraded.empty() || !unresponsive_ranks.empty();
  }
};

/// The distributed state estimation driver (paper §II algorithm + §IV-C
/// deployment): Step 1 locally per subsystem, peer-to-peer exchange of the
/// solutions at the tie-line ends through the communicator, Step 2
/// re-evaluation, and an allgather-style final combine. Transport-agnostic:
/// run it over InprocWorld or MediciWorld communicators.
class DseDriver {
 public:
  /// `decomposition` comes from decomp::decompose: its tie-end table sets
  /// what each subsystem ships to each neighbour, its sensitive sets (empty
  /// without decomp::analyze_sensitivity) which own buses join the boundary
  /// in taking Step-2 values in the combine.
  DseDriver(const grid::Network& network,
            const decomp::Decomposition& decomposition, DseOptions options);

  /// Execute one DSE cycle on this rank. `step1_assignment` and
  /// `step2_assignment` map each subsystem to the rank (cluster) hosting it
  /// in the respective step — the output of the mapping method; pass the
  /// same vector twice to keep every subsystem on one rank. Every rank
  /// passes the same assignment vectors and the same global measurement
  /// set; each rank routes it once by the owning subsystem of each metered
  /// bus and only consumes the measurements of the subsystems it hosts (its
  /// own SCADA scope). A malformed measurement, such as one on a bus
  /// outside the network, throws InvalidInput before Step 1.
  ///
  /// With a `recovery` context the cycle is recovery-aware: phase 0 probes
  /// membership (heartbeats), dead ranks are skipped without waiting out
  /// exchange deadlines, restore checkpoints warm-start Step 1, and fresh
  /// checkpoints are gathered on rank 0 after the combine.
  ///
  /// With a `prior` every other hosted Step 1 starts from the prior (see
  /// TrackingPrior); a planned checkpoint takes precedence. Without one,
  /// every Step 1 that restores nothing starts flat.
  DseResult run(runtime::Communicator& comm,
                const grid::MeasurementSet& global_measurements,
                std::span<const graph::PartId> step1_assignment,
                std::span<const graph::PartId> step2_assignment,
                const DseRecoveryContext* recovery = nullptr,
                const TrackingPrior* prior = nullptr) const;

  [[nodiscard]] const decomp::Decomposition& decomposition() const {
    return *decomposition_;
  }

 private:
  const grid::Network* network_;
  const decomp::Decomposition* decomposition_;
  DseOptions options_;
};

/// Centralized reference: one WLS over the whole interconnection (what the
/// distributed solution is compared against in the evaluation).
estimation::WlsResult centralized_estimate(
    const grid::Network& network, const grid::MeasurementSet& measurements,
    const estimation::WlsOptions& options);

}  // namespace gridse::core
