#pragma once

#include <optional>

#include "core/serialize.hpp"
#include "decomp/subsystem_model.hpp"
#include "estimation/wls.hpp"

namespace gridse::core {

/// Per-subsystem estimation configuration, shared by Step 1 and Step 2.
struct LocalEstimatorOptions {
  estimation::WlsOptions wls;
  /// Use the Huber M-estimator (IRLS) for the local solves instead of plain
  /// WLS: gross errors in one subsystem's telemetry are then bounded before
  /// its solution is exported to neighbours as pseudo measurements.
  bool robust = false;
};

/// Outcome of one subsystem step.
struct LocalSolveInfo {
  bool converged = false;
  int gauss_newton_iterations = 0;
  int inner_iterations = 0;
  double seconds = 0.0;
  double objective = 0.0;
  std::size_t num_measurements = 0;
  /// Step 1 started from a seeded state (a restored checkpoint or the
  /// previous frame's estimate) instead of a flat profile.
  bool warm_start = false;
};

/// Runs DSE Step 1 and Step 2 for one subsystem on its local and extended
/// models. The models are shared read-only: DseDriver takes them from its
/// PlanRegistry, which keeps them across time frames.
class LocalEstimator {
 public:
  /// Solve on `models` (both non-null; `models.local->subsystem_id` names
  /// the subsystem).
  LocalEstimator(const grid::Network& network, const decomp::Decomposition& d,
                 decomp::SubsystemModels models,
                 LocalEstimatorOptions options);

  /// Extract subsystem `subsystem`'s models from (network, d) and solve on
  /// them.
  LocalEstimator(const grid::Network& network, const decomp::Decomposition& d,
                 int subsystem, LocalEstimatorOptions options);

  /// DSE Step 1: estimate from this subsystem's own measurements: its
  /// list in `route` (decomp::route_measurements of `global_set`, made once
  /// per frame), filtered out of `global_set`. The local angle reference is
  /// the global slack bus if the subsystem hosts it, else the bus of the
  /// first PMU (kVAngle) measurement; throws InvalidInput when neither
  /// exists.
  LocalSolveInfo run_step1(const grid::MeasurementSet& global_set,
                           const decomp::MeasurementRoute& route);

  /// Seed the next run_step1 with a restored checkpoint (cross-cycle
  /// warm restart): `records` must cover every bus of this subsystem in
  /// global numbering. One-shot — the next run_step1 consumes it as its
  /// initial Gauss-Newton iterate (the PMU/slack reference angle is still
  /// pinned by the solver) instead of the flat profile, which converges in
  /// fewer iterations when the operating point moved only a little since
  /// the checkpoint was taken.
  void set_warm_start(const std::vector<BusStateRecord>& records);

  /// Seed the next run_step1 with this subsystem's buses of `prior`, a
  /// system-wide state in global numbering covering every bus (tracking:
  /// the previous frame's combined estimate). One-shot, as above.
  void set_warm_start(const grid::GridState& prior);

  /// Install a Step-1 solution computed on another cluster (re-mapping
  /// redistribution): `records` must cover every bus of this subsystem in
  /// global numbering. Enables run_step2 without a local run_step1.
  void adopt_step1(const std::vector<BusStateRecord>& records);

  /// DSE Step 2: re-evaluate on the extended model using own measurements
  /// (selected through `route` as in run_step1) plus neighbour pseudo
  /// measurements: the neighbours' boundary_records toward this subsystem,
  /// each at a remote bus of the extended model (checked). Requires
  /// run_step1 first. Every pseudo measurement (|V| and θ of each neighbour
  /// record) carries the same fixed pseudo sigma.
  /// With `fill_missing_with_priors` (degraded mode), remote extended buses
  /// not covered by `neighbor_states` get low-weight priors derived from an
  /// adjacent own bus's Step-1 solution instead of being left unanchored, so
  /// the extended solve stays observable when a neighbour never reported.
  LocalSolveInfo run_step2(
      const grid::MeasurementSet& global_set,
      const decomp::MeasurementRoute& route,
      const std::vector<BusStateRecord>& neighbor_states,
      bool fill_missing_with_priors = false);

  /// Step-1 solution of this subsystem's own buses, global numbering —
  /// all buses (for the final combine).
  [[nodiscard]] std::vector<BusStateRecord> step1_all_states() const;

  /// The pseudo measurements shipped to `neighbor`: this subsystem's ends
  /// of their tie lines (decomp::TieEnds::own), valued from the most recent
  /// step (Step 2 when it has run, else Step 1).
  [[nodiscard]] std::vector<BusStateRecord> boundary_records(
      int neighbor) const;

  /// Final per-bus states after Step 2: Step-2 values for boundary +
  /// sensitive buses, Step-1 values elsewhere. Falls back to Step-1
  /// everywhere when Step 2 has not run.
  [[nodiscard]] std::vector<BusStateRecord> final_states() const;

  [[nodiscard]] const decomp::SubsystemModel& local_model() const {
    return *local_;
  }
  [[nodiscard]] const decomp::SubsystemModel& extended_model() const {
    return *extended_;
  }
  [[nodiscard]] int subsystem() const { return subsystem_; }

 private:
  struct Reference {
    grid::BusIndex local_bus = 0;
    double angle = 0.0;
  };
  [[nodiscard]] Reference pick_reference(
      const decomp::SubsystemModel& model,
      const grid::MeasurementSet& local_set) const;

  const grid::Network* network_;
  const decomp::Decomposition* decomposition_;
  int subsystem_;
  LocalEstimatorOptions options_;
  std::shared_ptr<const decomp::SubsystemModel> local_;
  std::shared_ptr<const decomp::SubsystemModel> extended_;
  /// Map a full-coverage record batch into local numbering; throws
  /// InvalidInput on foreign buses or incomplete coverage.
  [[nodiscard]] grid::GridState records_to_local_state(
      const std::vector<BusStateRecord>& records, const char* what) const;

  std::optional<grid::GridState> step1_state_;   // local numbering
  std::optional<grid::GridState> step2_state_;   // extended numbering
  std::optional<grid::GridState> warm_start_;    // local numbering, one-shot
};

}  // namespace gridse::core
