#pragma once

#include <memory>

#include "grid/meas_model.hpp"
#include "grid/measurement.hpp"
#include "grid/network.hpp"
#include "grid/state.hpp"

namespace gridse::estimation {

class SolverCache;

struct WlsOptions {
  int max_iterations = 25;
  /// Symbolic-artifact cache shared across estimators (per subsystem in the
  /// DSE driver). When null the estimator creates a private cache, so
  /// repeated estimate() calls on one estimator still reuse symbolic work.
  std::shared_ptr<SolverCache> cache;
};

struct WlsResult {
  grid::GridState state;
  bool converged = false;
  int iterations = 0;
  /// Weighted least-squares objective J(x̂) = Σ w_i r_i² at the solution.
  double objective = 0.0;
  /// Residuals z − h(x̂) at the solution, in measurement order.
  std::vector<double> residuals;
  /// Newton decrement δ = Δxᵀ Hᵀ W r of the final iteration: the step's
  /// squared length in the estimate's own covariance metric G⁻¹, in χ²
  /// units. A converged solve's last δ is at most 1.
  double final_decrement = 0.0;
  /// Total inner (PCG) iterations across the Gauss–Newton loop.
  int inner_iterations = 0;
};

/// Centralized weighted-least-squares state estimator (Abur & Expósito
/// formulation, the paper's reference [19]): Gauss–Newton on
/// min Σ w_i (z_i − h_i(x))². Each iteration solves the normal equations
/// G Δx = Hᵀ W r by PCG (the paper's solver, §IV-C), preconditioned by the
/// LDLᵀ factor of the solve's first gain. A solve compiles its measurement
/// set once (grid::MeasurementKernel), so every iteration refills h, H, G
/// and Hᵀ W r in place on one fixed pattern. Gauss–Newton stops after the
/// first step whose decrement δ = Δxᵀ Hᵀ W r is at most one χ² unit: a step
/// no longer than one standard deviation of the estimate.
class WlsEstimator {
 public:
  /// The angle reference defaults to the network's slack bus.
  explicit WlsEstimator(const grid::Network& network, WlsOptions options = {});

  /// Alternate reference bus (DSE subsystems use their local reference).
  WlsEstimator(const grid::Network& network, grid::BusIndex reference_bus,
               WlsOptions options);

  /// As above, borrowing `ybus` (build_ybus of `network`, kept current by
  /// its owner — a DSE subsystem model) instead of building one per
  /// estimator. `ybus` must outlive the estimator.
  WlsEstimator(const grid::Network& network, grid::BusIndex reference_bus,
               WlsOptions options, const sparse::CsrComplex& ybus);

  /// Run the estimator from `initial` (flat start when omitted). The
  /// reference angle is pinned to `initial`'s value at the reference bus.
  /// Throws InvalidInput on malformed measurements; a non-converged run is
  /// reported via WlsResult::converged, not an exception.
  [[nodiscard]] WlsResult estimate(const grid::MeasurementSet& set) const;
  [[nodiscard]] WlsResult estimate(const grid::MeasurementSet& set,
                                   const grid::GridState& initial) const;

  [[nodiscard]] const grid::MeasurementModel& model() const { return model_; }
  [[nodiscard]] const WlsOptions& options() const { return options_; }

 private:
  WlsEstimator(const grid::Network& network, WlsOptions options,
               grid::MeasurementModel model);

  const grid::Network* network_;
  WlsOptions options_;
  grid::MeasurementModel model_;
  /// options_.cache, or a private cache when none was supplied. Never null.
  std::shared_ptr<SolverCache> cache_;
};

}  // namespace gridse::estimation
