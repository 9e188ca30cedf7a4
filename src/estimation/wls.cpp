#include "estimation/wls.hpp"

#include <cmath>
#include <memory>
#include <optional>

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

}  // namespace

WlsEstimator::WlsEstimator(const grid::Network& network, WlsOptions options)
    : WlsEstimator(network, network.slack_bus(), options) {}

WlsEstimator::WlsEstimator(const grid::Network& network,
                           grid::BusIndex reference_bus, WlsOptions options)
    : network_(&network),
      options_(options),
      model_(network, grid::StateIndex(network.num_buses(), reference_bus)),
      cache_(options.cache != nullptr ? options.cache
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

  WlsResult result;
  std::vector<double> x = index.pack(initial);
  // The PCG preconditioner, built from the first gain only: later gains
  // move little, so its exact factor keeps PCG to a few steps.
  std::optional<sparse::LdltPreconditioner> precond;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const grid::GridState state = index.unpack(x, ref_angle);
    const std::vector<double> h = model_.evaluate(set, state);
    std::vector<double> r = sparse::subtract(z, h);

    const sparse::Csr jac = model_.jacobian(set, state);
    // Symbolic reuse: after the first iteration (and across estimate()
    // calls on a fixed topology) the assembler/plan lookups are fingerprint
    // hits, so only the numeric work below runs.
    const auto assembler = cache_->assembler_for(jac);
    const sparse::Csr gain =
        assembler->assemble(jac, weights, options_.regularization);
    const std::vector<double> rhs = sparse::normal_rhs(jac, weights, r);

    std::vector<double> dx(static_cast<std::size_t>(index.size()), 0.0);
    if (!precond) precond.emplace(gain, cache_->plan_for(gain));
    sparse::CgOptions cg_opts;
    cg_opts.tolerance = kCgTolerance;
    const sparse::CgReport rep = sparse::pcg(gain, rhs, dx, *precond, cg_opts);
    result.inner_iterations += rep.iterations;
    OBS_COUNTS_OBSERVE("wls.pcg.iterations", rep.iterations);
    if (!rep.converged) {
      OBS_COUNTER_ADD("wls.pcg.nonconverged", 1);
      GRIDSE_WARN << "WLS inner PCG did not converge (rel res "
                  << rep.relative_residual << ")";
    }

    sparse::axpy(1.0, dx, x);
    result.final_step = sparse::norm_inf(dx);
    result.iterations = iter + 1;
    if (!std::isfinite(result.final_step)) {
      throw ConvergenceFailure("WLS diverged (non-finite step)");
    }
    if (result.final_step < options_.tolerance) {
      result.converged = true;
      break;
    }
  }

  OBS_COUNTS_OBSERVE("wls.gauss_newton_iterations", result.iterations);
  result.state = index.unpack(x, ref_angle);
  const std::vector<double> h = model_.evaluate(set, result.state);
  result.residuals = sparse::subtract(z, h);
  result.objective = 0.0;
  for (std::size_t i = 0; i < result.residuals.size(); ++i) {
    result.objective += weights[i] * result.residuals[i] * result.residuals[i];
  }
  if (!result.converged) {
    GRIDSE_WARN << "WLS did not converge in " << options_.max_iterations
                << " iterations (last step " << result.final_step << ")";
  }
  return result;
}

}  // namespace gridse::estimation
