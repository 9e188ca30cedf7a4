#pragma once

#include "estimation/wls.hpp"

namespace gridse::estimation {

/// Options for the Huber M-estimator. `gamma` is the Huber threshold in
/// standard deviations: residuals within ±gamma·sigma get quadratic loss
/// (WLS behaviour), larger ones linear loss (bounded influence).
struct RobustOptions {
  WlsOptions wls;
  double gamma = 1.5;
  /// Outer IRLS iterations (each runs one full WLS on reweighted data).
  int max_reweight_iterations = 10;
};

struct RobustResult {
  WlsResult wls;
  /// Final IRLS weight multipliers in [0,1], one per measurement; values
  /// well below 1 mark suspected outliers.
  std::vector<double> influence;
  int reweight_iterations = 0;
};

/// Huber M-estimation by iteratively reweighted least squares: an
/// alternative to detect-and-remove that tolerates gross errors without
/// explicitly excising measurements (Abur & Expósito ch. 6 — the robust
/// option for the paper's reference [19] formulation).
class HuberEstimator {
 public:
  /// The angle reference defaults to the network's slack bus.
  explicit HuberEstimator(const grid::Network& network,
                          RobustOptions options = {});

  /// Alternate reference bus (DSE subsystems use their local reference).
  HuberEstimator(const grid::Network& network, grid::BusIndex reference_bus,
                 RobustOptions options);

  /// As above, borrowing `ybus` (build_ybus of `network`, kept current by
  /// its owner) instead of building one; it must outlive the estimator.
  HuberEstimator(const grid::Network& network, grid::BusIndex reference_bus,
                 RobustOptions options, const sparse::CsrComplex& ybus);

  [[nodiscard]] RobustResult estimate(const grid::MeasurementSet& set) const;
  [[nodiscard]] RobustResult estimate(const grid::MeasurementSet& set,
                                      const grid::GridState& initial) const;

 private:
  /// `borrowed` null = build and own the network's admittance matrix.
  HuberEstimator(const grid::Network& network, grid::BusIndex reference_bus,
                 RobustOptions options, const sparse::CsrComplex* borrowed);

  /// The admittance matrix every IRLS pass's WlsEstimator borrows.
  [[nodiscard]] const sparse::CsrComplex& ybus() const {
    return borrowed_ybus_ != nullptr ? *borrowed_ybus_ : ybus_;
  }

  const grid::Network* network_;
  grid::BusIndex reference_bus_;
  RobustOptions options_;
  /// Owned admittance matrix; empty when the estimator borrows one.
  sparse::CsrComplex ybus_;
  const sparse::CsrComplex* borrowed_ybus_;
};

}  // namespace gridse::estimation
