#include "estimation/robust.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace gridse::estimation {
namespace {

/// IRLS stops when the largest relative weight change falls below this.
constexpr double kWeightTolerance = 1e-3;

}  // namespace

HuberEstimator::HuberEstimator(const grid::Network& network,
                               RobustOptions options)
    : HuberEstimator(network, network.slack_bus(), options) {}

HuberEstimator::HuberEstimator(const grid::Network& network,
                               grid::BusIndex reference_bus,
                               RobustOptions options)
    : HuberEstimator(network, reference_bus, std::move(options), nullptr) {}

HuberEstimator::HuberEstimator(const grid::Network& network,
                               grid::BusIndex reference_bus,
                               RobustOptions options,
                               const sparse::CsrComplex& ybus)
    : HuberEstimator(network, reference_bus, std::move(options), &ybus) {}

HuberEstimator::HuberEstimator(const grid::Network& network,
                               grid::BusIndex reference_bus,
                               RobustOptions options,
                               const sparse::CsrComplex* borrowed)
    : network_(&network),
      reference_bus_(reference_bus),
      options_(std::move(options)),
      ybus_(borrowed == nullptr ? grid::build_ybus(network)
                                : sparse::CsrComplex{}),
      borrowed_ybus_(borrowed) {
  GRIDSE_CHECK_MSG(options_.gamma > 0.0, "Huber gamma must be positive");
  GRIDSE_CHECK_MSG(options_.max_reweight_iterations > 0,
                   "need at least one reweight iteration");
}

RobustResult HuberEstimator::estimate(const grid::MeasurementSet& set) const {
  return estimate(set, grid::GridState(network_->num_buses()));
}

RobustResult HuberEstimator::estimate(const grid::MeasurementSet& set,
                                      const grid::GridState& initial) const {
  RobustResult result;
  result.influence.assign(set.size(), 1.0);

  grid::MeasurementSet working = set;
  grid::GridState start = initial;
  for (int iter = 0; iter < options_.max_reweight_iterations; ++iter) {
    const WlsEstimator wls(*network_, reference_bus_, options_.wls, ybus());
    result.wls = wls.estimate(working, start);
    result.reweight_iterations = iter + 1;

    // Huber weights on the ORIGINAL sigmas: w_i = 1 for |r|/sigma <= gamma,
    // gamma*sigma/|r| beyond. Applied by inflating the working sigma,
    // because WLS weight = 1/sigma².
    double max_change = 0.0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      const double sigma = set.items[i].sigma;
      const double std_res = std::abs(result.wls.residuals[i]) / sigma;
      const double w =
          std_res <= options_.gamma ? 1.0 : options_.gamma / std_res;
      max_change = std::max(max_change, std::abs(w - result.influence[i]));
      result.influence[i] = w;
      working.items[i].sigma = sigma / std::sqrt(w);
    }
    start = result.wls.state;  // warm start the next IRLS pass
    if (max_change < kWeightTolerance) {
      break;
    }
  }
  return result;
}

}  // namespace gridse::estimation
