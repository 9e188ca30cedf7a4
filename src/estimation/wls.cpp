#include "estimation/wls.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "estimation/solver_cache.hpp"
#include "obs/obs.hpp"
#include "sparse/cg.hpp"
#include "sparse/normal_equations.hpp"
#include "sparse/vector_ops.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::estimation {
namespace {

/// Relative tolerance for the inner PCG solve.
constexpr double kCgTolerance = 1e-12;

/// Gauss–Newton stops after a step whose decrement δ = Δxᵀ Hᵀ W r is at most
/// this many χ² units. δ is Δxᵀ G Δx, the step's squared length in the
/// metric of the estimate's covariance G⁻¹, and the drop in Σ w r² that the
/// step predicts. Near the solution Gauss–Newton contracts quadratically in
/// these units, so the step not taken is far below one standard deviation.
constexpr double kDecrementBound = 1.0;

}  // namespace

WlsEstimator::WlsEstimator(const grid::Network& network, WlsOptions options)
    : WlsEstimator(network, network.slack_bus(), options) {}

WlsEstimator::WlsEstimator(const grid::Network& network,
                           grid::BusIndex reference_bus, WlsOptions options)
    : WlsEstimator(network, std::move(options),
                   grid::MeasurementModel(
                       network,
                       grid::StateIndex(network.num_buses(), reference_bus))) {}

WlsEstimator::WlsEstimator(const grid::Network& network,
                           grid::BusIndex reference_bus, WlsOptions options,
                           const sparse::CsrComplex& ybus)
    : WlsEstimator(
          network, std::move(options),
          grid::MeasurementModel(
              network, grid::StateIndex(network.num_buses(), reference_bus),
              ybus)) {}

WlsEstimator::WlsEstimator(const grid::Network& network, WlsOptions options,
                           grid::MeasurementModel model)
    : network_(&network),
      options_(std::move(options)),
      model_(std::move(model)),
      cache_(options_.cache != nullptr ? options_.cache
                                       : std::make_shared<SolverCache>()) {}

WlsResult WlsEstimator::estimate(const grid::MeasurementSet& set) const {
  return estimate(set, grid::GridState(network_->num_buses()));
}

WlsResult WlsEstimator::estimate(const grid::MeasurementSet& set,
                                 const grid::GridState& initial) const {
  OBS_SPAN("wls.estimate");
  OBS_COUNTER_ADD("wls.solves", 1);
  grid::validate_measurements(*network_, set);
  const grid::StateIndex& index = model_.state_index();
  if (static_cast<std::int32_t>(set.size()) < index.size()) {
    throw InvalidInput(
        "WLS: fewer measurements than states (" + std::to_string(set.size()) +
        " < " + std::to_string(index.size()) + "); system unobservable");
  }
  const std::vector<double> weights = set.weights();
  const std::vector<double> z = set.values();
  const double ref_angle =
      initial.theta[static_cast<std::size_t>(index.reference_bus())];

  // Compile the meter set once: every iteration below refills h, the
  // values of one fixed Jacobian pattern, the gain on the assembler's
  // pattern and the rhs, all in place.
  grid::MeasurementKernel kernel(model_, set);
  const sparse::Csr& jac = kernel.jacobian();
  const auto assembler = cache_->assembler_for(jac);

  WlsResult result;
  std::vector<double> x = index.pack(initial);
  const auto dim = static_cast<std::size_t>(index.size());
  grid::GridState state;
  std::vector<double> h(set.size());
  std::vector<double> wr(set.size());
  std::vector<double> rhs(dim);
  std::vector<double> dx(dim);
  sparse::Csr gain;
  // The PCG preconditioner, the LDLᵀ factor of the first gain only: later
  // gains move little, so it keeps PCG to a few steps.
  sparse::SparseLdlt factor;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    index.unpack(x, ref_angle, state);
    kernel.linearize(state, h);
    // rhs = Hᵀ W (z − h)
    for (std::size_t i = 0; i < wr.size(); ++i) {
      wr[i] = weights[i] * (z[i] - h[i]);
    }
    jac.multiply_transpose(wr, rhs);
    if (iter == 0) {
      gain = assembler->assemble(jac, weights);
    } else {
      assembler->assemble(jac, weights, gain);
    }

    std::fill(dx.begin(), dx.end(), 0.0);
    if (iter == 0) factor.factorize_with_shift(gain, cache_->plan_for(gain));
    sparse::CgOptions cg_opts;
    cg_opts.tolerance = kCgTolerance;
    const sparse::CgReport rep = sparse::pcg(gain, rhs, dx, factor, cg_opts);
    result.inner_iterations += rep.iterations;
    OBS_COUNTS_OBSERVE("wls.pcg.iterations", rep.iterations);
    if (!rep.converged) {
      OBS_COUNTER_ADD("wls.pcg.nonconverged", 1);
      GRIDSE_WARN << "WLS inner PCG did not converge (rel res "
                  << rep.relative_residual << ")";
    }

    result.final_decrement = sparse::dot(dx, rhs);
    sparse::axpy(1.0, dx, x);
    result.iterations = iter + 1;
    if (!std::isfinite(result.final_decrement)) {
      throw ConvergenceFailure("WLS diverged (non-finite step)");
    }
    if (result.final_decrement <= kDecrementBound) {
      result.converged = true;
      break;
    }
  }

  OBS_COUNTS_OBSERVE("wls.gauss_newton_iterations", result.iterations);
  result.state = index.unpack(x, ref_angle);
  kernel.evaluate(result.state, h);
  result.residuals = sparse::subtract(z, h);
  result.objective = 0.0;
  for (std::size_t i = 0; i < result.residuals.size(); ++i) {
    result.objective += weights[i] * result.residuals[i] * result.residuals[i];
  }
  if (!result.converged) {
    GRIDSE_WARN << "WLS did not converge in " << options_.max_iterations
                << " iterations (last decrement " << result.final_decrement
                << ")";
  }
  return result;
}

}  // namespace gridse::estimation
