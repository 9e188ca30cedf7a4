#include "core/local_estimator.hpp"

#include <set>

#include "estimation/robust.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gridse::core {
namespace {

/// Standard deviation of a neighbour pseudo measurement (|V| and θ) in
/// Step 2.
constexpr double kPseudoSigma = 0.01;
/// Standard deviation of the low-weight priors substituted for missing
/// neighbour pseudo measurements in degraded Step 2 (several times looser
/// than kPseudoSigma so real data always dominates).
constexpr double kDegradedPriorSigma = 0.05;

/// Dispatch one local solve through plain WLS or the Huber M-estimator,
/// per the options, on `model`'s network and its kept Ybus.
estimation::WlsResult solve_local(const decomp::SubsystemModel& model,
                                  grid::BusIndex reference,
                                  const LocalEstimatorOptions& options,
                                  const estimation::WlsOptions& wls_opts,
                                  const grid::MeasurementSet& set,
                                  const grid::GridState& initial) {
  if (!options.robust) {
    const estimation::WlsEstimator estimator(model.network, reference,
                                             wls_opts, model.ybus);
    return estimator.estimate(set, initial);
  }
  estimation::RobustOptions ropts;
  ropts.wls = wls_opts;
  const estimation::HuberEstimator estimator(model.network, reference, ropts,
                                             model.ybus);
  return estimator.estimate(set, initial).wls;
}

}  // namespace

LocalEstimator::LocalEstimator(const grid::Network& network,
                               const decomp::Decomposition& d,
                               decomp::SubsystemModels models,
                               LocalEstimatorOptions options)
    : network_(&network),
      decomposition_(&d),
      subsystem_(models.local->subsystem_id),
      options_(std::move(options)),
      local_(std::move(models.local)),
      extended_(std::move(models.extended)) {
  GRIDSE_CHECK(extended_ != nullptr &&
               extended_->subsystem_id == subsystem_);
}

LocalEstimator::LocalEstimator(const grid::Network& network,
                               const decomp::Decomposition& d, int subsystem,
                               LocalEstimatorOptions options)
    : LocalEstimator(
          network, d,
          {std::make_shared<const decomp::SubsystemModel>(
               decomp::extract_local(network, d, subsystem)),
           std::make_shared<const decomp::SubsystemModel>(
               decomp::extract_extended(network, d, subsystem))},
          std::move(options)) {}

LocalEstimator::Reference LocalEstimator::pick_reference(
    const decomp::SubsystemModel& model,
    const grid::MeasurementSet& local_set) const {
  // Global slack inside this subsystem anchors the reference at angle 0.
  if (model.own_slack >= 0) {
    return {model.own_slack, 0.0};
  }
  // Otherwise the first PMU (kVAngle) measurement pins the local reference
  // to a globally synchronized angle — the role synchronized phasors play in
  // the decentralized DSE algorithm the paper builds on [5].
  for (const grid::Measurement& m : local_set.items) {
    if (m.type == grid::MeasType::kVAngle &&
        model.own[static_cast<std::size_t>(m.bus)]) {
      return {m.bus, m.value};
    }
  }
  throw InvalidInput(
      "subsystem " + std::to_string(subsystem_) +
      " has neither the slack bus nor a PMU angle measurement; its local "
      "state estimation cannot be referenced to the interconnection");
}

LocalSolveInfo LocalEstimator::run_step1(
    const grid::MeasurementSet& global_set,
    const decomp::MeasurementRoute& route) {
  Timer timer;
  const grid::MeasurementSet local_set =
      local_->filter(global_set, route.of(subsystem_));
  const Reference ref = pick_reference(*local_, local_set);

  grid::GridState initial(local_->network.num_buses());
  const bool warm = warm_start_.has_value();
  if (warm) {
    // Cross-cycle warm restart: start Gauss-Newton from the restored
    // checkpoint. The reference angle is still pinned below so a checkpoint
    // taken against a drifted PMU reading cannot skew the reference.
    initial = *warm_start_;
    warm_start_.reset();
    initial.theta[static_cast<std::size_t>(ref.local_bus)] = ref.angle;
  } else {
    // Flat-start magnitudes, but seed every angle at the reference angle:
    // in a wide interconnection the subsystem's absolute angle can be far
    // from 0, and Gauss-Newton diverges when started that far out; the
    // intra-subsystem spread around the PMU angle is always small.
    for (double& th : initial.theta) {
      th = ref.angle;
    }
  }
  const estimation::WlsResult result = solve_local(
      *local_, ref.local_bus, options_, options_.wls, local_set, initial);

  step1_state_ = result.state;
  step2_state_.reset();

  LocalSolveInfo info;
  info.warm_start = warm;
  info.converged = result.converged;
  info.gauss_newton_iterations = result.iterations;
  info.inner_iterations = result.inner_iterations;
  info.objective = result.objective;
  info.num_measurements = local_set.size();
  info.seconds = timer.seconds();
  return info;
}

grid::GridState LocalEstimator::records_to_local_state(
    const std::vector<BusStateRecord>& records, const char* what) const {
  grid::GridState state(local_->network.num_buses());
  std::vector<bool> seen(static_cast<std::size_t>(local_->network.num_buses()),
                         false);
  for (const BusStateRecord& rec : records) {
    const grid::BusIndex l = local_->local_of_global.find(rec.bus);
    if (l < 0) {
      throw InvalidInput(std::string(what) + ": record for bus " +
                         std::to_string(rec.bus) +
                         " which is not in subsystem " +
                         std::to_string(subsystem_));
    }
    state.theta[static_cast<std::size_t>(l)] = rec.theta;
    state.vm[static_cast<std::size_t>(l)] = rec.vm;
    seen[static_cast<std::size_t>(l)] = true;
  }
  for (const bool s : seen) {
    if (!s) {
      throw InvalidInput(std::string(what) + ": incomplete state for " +
                         "subsystem " + std::to_string(subsystem_));
    }
  }
  return state;
}

void LocalEstimator::adopt_step1(const std::vector<BusStateRecord>& records) {
  step1_state_ = records_to_local_state(records, "adopt_step1");
  step2_state_.reset();
}

void LocalEstimator::set_warm_start(
    const std::vector<BusStateRecord>& records) {
  warm_start_ = records_to_local_state(records, "set_warm_start");
}

void LocalEstimator::set_warm_start(const grid::GridState& prior) {
  GRIDSE_CHECK(prior.num_buses() == network_->num_buses());
  warm_start_ = local_->gather_state(prior);
}

LocalSolveInfo LocalEstimator::run_step2(
    const grid::MeasurementSet& global_set,
    const decomp::MeasurementRoute& route,
    const std::vector<BusStateRecord>& neighbor_states,
    bool fill_missing_with_priors) {
  GRIDSE_CHECK_MSG(step1_state_.has_value(), "run_step2 before run_step1");
  Timer timer;

  grid::MeasurementSet ext_set =
      extended_->filter(global_set, route.of(subsystem_));
  const Reference ref = pick_reference(*extended_, ext_set);

  // Initial state: own buses from Step 1; remote buses flat, overwritten
  // below by the received neighbour solutions.
  grid::GridState initial(extended_->network.num_buses());
  for (grid::BusIndex l = 0; l < extended_->network.num_buses(); ++l) {
    const grid::BusIndex g =
        extended_->global_bus[static_cast<std::size_t>(l)];
    const grid::BusIndex own = local_->local_of_global.find(g);
    if (own >= 0) {
      initial.theta[static_cast<std::size_t>(l)] =
          step1_state_->theta[static_cast<std::size_t>(own)];
      initial.vm[static_cast<std::size_t>(l)] =
          step1_state_->vm[static_cast<std::size_t>(own)];
    }
  }

  // Neighbour solutions become pseudo measurements on the extended model
  // (paper §II Step 2), and seed the initial state of the remote buses.
  std::vector<bool> covered(
      static_cast<std::size_t>(extended_->network.num_buses()), false);
  for (const BusStateRecord& rec : neighbor_states) {
    const grid::BusIndex l = extended_->local_of_global.find(rec.bus);
    GRIDSE_CHECK_MSG(l >= 0 && !extended_->own[static_cast<std::size_t>(l)],
                     "pseudo measurement not at a remote bus");
    ext_set.items.push_back(
        {grid::MeasType::kVMag, l, -1, true, rec.vm, kPseudoSigma});
    ext_set.items.push_back(
        {grid::MeasType::kVAngle, l, -1, true, rec.theta, kPseudoSigma});
    initial.theta[static_cast<std::size_t>(l)] = rec.theta;
    initial.vm[static_cast<std::size_t>(l)] = rec.vm;
    covered[static_cast<std::size_t>(l)] = true;
  }

  if (fill_missing_with_priors) {
    // Degraded mode: remote buses whose neighbour never reported would leave
    // the extended system unobservable. Anchor each of them with a
    // low-weight prior taken from the Step-1 value of its lowest-numbered
    // own neighbour; every remote bus is the far end of an own tie line.
    const auto n = static_cast<std::size_t>(extended_->network.num_buses());
    std::vector<grid::BusIndex> anchor(n, -1);
    for (const grid::Branch& br : extended_->network.branches()) {
      const bool from_own = extended_->own[static_cast<std::size_t>(br.from)];
      if (from_own == extended_->own[static_cast<std::size_t>(br.to)]) {
        continue;  // internal branch
      }
      const grid::BusIndex own = from_own ? br.from : br.to;
      grid::BusIndex& a =
          anchor[static_cast<std::size_t>(from_own ? br.to : br.from)];
      if (a < 0 || own < a) a = own;
    }
    for (std::size_t l = 0; l < n; ++l) {
      if (extended_->own[l] || covered[l]) continue;
      const auto a = static_cast<std::size_t>(anchor[l]);
      const double vm = initial.vm[a];
      const double theta = initial.theta[a];
      ext_set.items.push_back({grid::MeasType::kVMag,
                               static_cast<grid::BusIndex>(l), -1, true, vm,
                               kDegradedPriorSigma});
      ext_set.items.push_back({grid::MeasType::kVAngle,
                               static_cast<grid::BusIndex>(l), -1, true,
                               theta, kDegradedPriorSigma});
      initial.theta[l] = theta;
      initial.vm[l] = vm;
    }
  }

  initial.theta[static_cast<std::size_t>(ref.local_bus)] = ref.angle;
  const estimation::WlsResult result = solve_local(
      *extended_, ref.local_bus, options_, options_.wls, ext_set, initial);

  step2_state_ = result.state;

  LocalSolveInfo info;
  info.converged = result.converged;
  info.gauss_newton_iterations = result.iterations;
  info.inner_iterations = result.inner_iterations;
  info.objective = result.objective;
  info.num_measurements = ext_set.size();
  info.seconds = timer.seconds();
  return info;
}

std::vector<BusStateRecord> LocalEstimator::step1_all_states() const {
  GRIDSE_CHECK_MSG(step1_state_.has_value(), "step1 has not run");
  std::vector<BusStateRecord> out;
  out.reserve(local_->global_bus.size());
  for (grid::BusIndex l = 0; l < local_->network.num_buses(); ++l) {
    out.push_back({local_->global_bus[static_cast<std::size_t>(l)],
                   step1_state_->theta[static_cast<std::size_t>(l)],
                   step1_state_->vm[static_cast<std::size_t>(l)]});
  }
  return out;
}

std::vector<BusStateRecord> LocalEstimator::boundary_records(
    int neighbor) const {
  GRIDSE_CHECK_MSG(step1_state_.has_value(), "step1 has not run");
  const decomp::TieEnds& tie =
      decomposition_->subsystems[static_cast<std::size_t>(subsystem_)]
          .ties_to(neighbor);
  // Step-2 values live in extended numbering, Step-1 values in local.
  const bool refined = step2_state_.has_value();
  const decomp::SubsystemModel& model = refined ? *extended_ : *local_;
  const grid::GridState& state = refined ? *step2_state_ : *step1_state_;
  std::vector<BusStateRecord> out;
  for (const grid::BusIndex g : tie.own) {
    const grid::BusIndex l = model.local_of_global.find(g);
    GRIDSE_CHECK(l >= 0);
    out.push_back({g, state.theta[static_cast<std::size_t>(l)],
                   state.vm[static_cast<std::size_t>(l)]});
  }
  return out;
}

std::vector<BusStateRecord> LocalEstimator::final_states() const {
  GRIDSE_CHECK_MSG(step1_state_.has_value(), "step1 has not run");
  std::vector<BusStateRecord> out = step1_all_states();
  if (!step2_state_.has_value()) {
    return out;
  }
  const decomp::Subsystem& sub =
      decomposition_->subsystems[static_cast<std::size_t>(subsystem_)];
  std::set<grid::BusIndex> reeval(sub.boundary_buses.begin(),
                                  sub.boundary_buses.end());
  reeval.insert(sub.sensitive_internal.begin(), sub.sensitive_internal.end());
  for (BusStateRecord& rec : out) {
    if (reeval.count(rec.bus) == 0) continue;
    const grid::BusIndex l = extended_->local_of_global.find(rec.bus);
    GRIDSE_CHECK(l >= 0);
    rec.theta = step2_state_->theta[static_cast<std::size_t>(l)];
    rec.vm = step2_state_->vm[static_cast<std::size_t>(l)];
  }
  return out;
}

}  // namespace gridse::core
