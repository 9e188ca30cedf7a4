#include "estimation/wls.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "decomp/bus_partition.hpp"
#include "decomp/decomposition.hpp"
#include "decomp/subsystem_model.hpp"
#include "grid/dc_powerflow.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "io/synthetic.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/normal_equations.hpp"
#include "sparse/vector_ops.hpp"
#include "util/rng.hpp"

namespace gridse::estimation {
namespace {

struct WlsFixtureData {
  io::Case kase;
  grid::PowerFlowResult pf;
  grid::MeasurementSet noisy;
  grid::MeasurementSet noiseless;
};

WlsFixtureData make_case14_data(std::uint64_t seed = 11) {
  WlsFixtureData d;
  d.kase = io::ieee14();
  d.pf = grid::solve_power_flow(d.kase.network);
  grid::MeasurementGenerator gen(d.kase.network, {});
  Rng rng(seed);
  d.noisy = gen.generate(d.pf.state, rng);
  d.noiseless = gen.generate_noiseless(d.pf.state);
  return d;
}

TEST(Wls, NoiselessMeasurementsRecoverTruthExactly) {
  const auto d = make_case14_data();
  WlsEstimator est(d.kase.network);
  const WlsResult r = est.estimate(d.noiseless);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(grid::max_vm_error(r.state, d.pf.state), 1e-7);
  EXPECT_LT(grid::max_angle_error(r.state, d.pf.state), 1e-7);
  EXPECT_LT(r.objective, 1e-8);
}

/// The Newton decrement gᵀ G⁻¹ g of the WLS problem at `state`, with
/// g = Hᵀ W (z − h) and G = Hᵀ W H freshly factored there: the squared
/// distance, in the estimate's own covariance metric, that one exact
/// Gauss–Newton step would still move.
double decrement_at(const WlsEstimator& est, const grid::MeasurementSet& meas,
                    const grid::GridState& state) {
  const std::vector<double> weights = meas.weights();
  const sparse::Csr jac = est.model().jacobian(meas, state);
  const std::vector<double> g = sparse::normal_rhs(
      jac, weights,
      sparse::subtract(meas.values(), est.model().evaluate(meas, state)));
  sparse::SparseLdlt ldlt;
  ldlt.factorize(sparse::normal_matrix(jac, weights));
  return sparse::dot(g, ldlt.solve(g));
}

// Path-independent correctness: at the returned estimate the WLS gradient
// g = Hᵀ W (z − h(x̂)) vanishes (first-order optimality), which needs no
// second solver to compare against. It is measured as the decrement
// gᵀ G⁻¹ g, in χ² units, so the check is free of the weights' scale.
TEST(Wls, GradientVanishesAtTheEstimate) {
  struct Case {
    std::string name;
    grid::Network network;
    int gauss_newton_iterations;
  };
  const std::vector<Case> cases{{"ieee14", io::ieee14().network, 3},
                                {"ieee118", io::ieee118_dse().kase.network, 3},
                                {"wecc37", io::wecc37().kase.network, 3}};
  for (const Case& c : cases) {
    const grid::PowerFlowResult pf = grid::solve_power_flow(c.network);
    grid::MeasurementGenerator gen(c.network, {});
    Rng rng(17);
    const grid::MeasurementSet meas = gen.generate(pf.state, rng);

    const WlsEstimator est(c.network);
    const WlsResult r = est.estimate(meas);
    ASSERT_TRUE(r.converged) << c.name;
    EXPECT_EQ(r.iterations, c.gauss_newton_iterations) << c.name;
    EXPECT_LE(r.final_decrement, 1.0) << c.name;
    EXPECT_LE(decrement_at(est, meas, r.state), 1e-5) << c.name;
  }
}

/// Where the reference Gauss–Newton below stops.
enum class Stop {
  kDecrement,  ///< the estimator's rule: after a step with δ ≤ 1
  kTight,      ///< after a step with max |Δx| < 1e-13, at round-off
};

// Reference Gauss–Newton with an exact LDLᵀ factor of every iteration's
// gain, from `initial` (angle reference pinned to its value there): the
// direct solve the estimator's PCG must reproduce.
WlsResult direct_gauss_newton(const WlsEstimator& est,
                              const grid::MeasurementSet& meas,
                              const grid::GridState& initial, Stop stop) {
  const grid::StateIndex& index = est.model().state_index();
  const std::vector<double> weights = meas.weights();
  const double ref_angle =
      initial.theta[static_cast<std::size_t>(index.reference_bus())];
  std::vector<double> x = index.pack(initial);
  WlsResult result;
  for (int iter = 0; iter < est.options().max_iterations; ++iter) {
    const grid::GridState state = index.unpack(x, ref_angle);
    const sparse::Csr jac = est.model().jacobian(meas, state);
    const std::vector<double> r =
        sparse::subtract(meas.values(), est.model().evaluate(meas, state));
    sparse::SparseLdlt ldlt;
    ldlt.factorize(sparse::normal_matrix(jac, weights));
    const std::vector<double> rhs = sparse::normal_rhs(jac, weights, r);
    const std::vector<double> dx = ldlt.solve(rhs);
    result.final_decrement = sparse::dot(dx, rhs);
    sparse::axpy(1.0, dx, x);
    result.iterations = iter + 1;
    if (stop == Stop::kDecrement ? result.final_decrement <= 1.0
                                 : sparse::norm_inf(dx) < 1e-13) {
      result.converged = true;
      break;
    }
  }
  result.state = index.unpack(x, ref_angle);
  return result;
}

// The estimator keeps the first iteration's LDLᵀ factor as its PCG
// preconditioner; it must walk the same Gauss–Newton path as a fresh exact
// factor every iteration.
TEST(Wls, FirstFactorPreconditionerMatchesDirectGaussNewton) {
  const grid::Network net118 = io::ieee118_dse().kase.network;
  const io::Case case14 = io::ieee14();
  for (const grid::Network* net : {&case14.network, &net118}) {
    const grid::PowerFlowResult pf = grid::solve_power_flow(*net);
    grid::MeasurementGenerator gen(*net, {});
    Rng rng(17);
    const grid::MeasurementSet meas = gen.generate(pf.state, rng);

    const WlsEstimator est(*net);
    const WlsResult pcg = est.estimate(meas);
    const WlsResult direct = direct_gauss_newton(
        est, meas, grid::GridState(net->num_buses()), Stop::kDecrement);

    const std::string tag = std::to_string(net->num_buses()) + " buses";
    ASSERT_TRUE(pcg.converged) << tag;
    ASSERT_TRUE(direct.converged) << tag;
    EXPECT_EQ(pcg.iterations, direct.iterations) << tag;
    EXPECT_LT(grid::max_vm_error(pcg.state, direct.state), 1e-9) << tag;
    EXPECT_LT(grid::max_angle_error(pcg.state, direct.state), 1e-9) << tag;
  }
}

/// One WLS problem the stop is held on: its network, reference bus, the
/// frame's meters and the previous frame's, and the true state.
struct StopCase {
  std::string name;
  grid::Network network;
  grid::BusIndex reference = 0;
  grid::MeasurementSet meas;
  grid::MeasurementSet previous_meas;
  grid::GridState truth;
};

StopCase whole_network_case(std::string name, grid::Network network) {
  StopCase c;
  c.name = std::move(name);
  c.network = std::move(network);
  c.reference = c.network.slack_bus();
  c.truth = grid::solve_power_flow(c.network).state;
  const grid::MeasurementGenerator gen(c.network, {});
  Rng rng(29);
  c.previous_meas = gen.generate(c.truth, rng);
  c.meas = gen.generate(c.truth, rng);
  return c;
}

/// The largest Step-2 extended model of the 10k tier's 32-way bench split:
/// its own meters of a DC-truth frame, |V| and θ pseudo meters on every
/// remote bus, referenced at its first own bus.
StopCase tier10k_extended_case() {
  const io::GeneratedCase gc = io::interconnection10k();
  const grid::Network& net = gc.kase.network;
  graph::PartitionOptions popts;
  popts.k = 32;
  popts.seed = 7;
  popts.objective = graph::PartitionObjective::kConvergenceAware;
  const decomp::Decomposition d =
      decomp::decompose(net, decomp::partition_buses(net, popts));
  decomp::SubsystemModel ext = decomp::extract_extended(net, d, 0);
  for (int s = 1; s < d.num_subsystems(); ++s) {
    decomp::SubsystemModel m = decomp::extract_extended(net, d, s);
    if (m.network.num_buses() > ext.network.num_buses()) ext = std::move(m);
  }

  grid::GridState truth(net.num_buses());
  truth.theta = grid::solve_dc_power_flow(net);
  for (grid::BusIndex b = 0; b < net.num_buses(); ++b) {
    truth.vm[static_cast<std::size_t>(b)] =
        net.bus(b).type == grid::BusType::kPQ ? 1.0 : net.bus(b).v_setpoint;
  }

  StopCase c;
  c.name = "10k extended (" + std::to_string(ext.network.num_buses()) +
           " buses)";
  c.network = ext.network;
  c.truth = ext.gather_state(truth);
  const auto own = std::find(ext.own.begin(), ext.own.end(), true);
  c.reference = static_cast<grid::BusIndex>(own - ext.own.begin());
  const grid::MeasurementGenerator gen(net, {});
  Rng rng(29);
  for (grid::MeasurementSet* set : {&c.previous_meas, &c.meas}) {
    *set = ext.filter(gen.generate(truth, rng));
    for (grid::BusIndex l = 0; l < c.network.num_buses(); ++l) {
      const auto lu = static_cast<std::size_t>(l);
      if (ext.own[lu]) continue;
      set->items.push_back({grid::MeasType::kVMag, l, -1, true,
                            c.truth.vm[lu] + rng.gaussian(0.01), 0.01});
      set->items.push_back({grid::MeasType::kVAngle, l, -1, true,
                            c.truth.theta[lu] + rng.gaussian(0.01), 0.01});
    }
  }
  return c;
}

// The decrement stop lands on the tight solve: from a flat start and from
// the previous frame's estimate (a tracked start), the estimate x̂ differs
// from a direct Gauss–Newton run to round-off, x*, by at most 1e-5 in the
// estimate's own covariance metric, (x̂ − x*)ᵀ G(x*) (x̂ − x*) ≤ 1e-5: about
// 3e-3 standard deviations of the estimate in any direction.
TEST(Wls, StopLandsNearTheTightSolve) {
  std::vector<StopCase> cases;
  cases.push_back(whole_network_case("ieee14", io::ieee14().network));
  cases.push_back(
      whole_network_case("ieee118", io::ieee118_dse().kase.network));
  cases.push_back(whole_network_case("wecc37", io::wecc37().kase.network));
  cases.push_back(tier10k_extended_case());
  for (const StopCase& c : cases) {
    const WlsEstimator est(c.network, c.reference, {});
    const grid::StateIndex& index = est.model().state_index();
    grid::GridState flat(c.network.num_buses());
    flat.theta[static_cast<std::size_t>(c.reference)] =
        c.truth.theta[static_cast<std::size_t>(c.reference)];
    const WlsResult previous = est.estimate(c.previous_meas, flat);
    ASSERT_TRUE(previous.converged) << c.name;

    const std::vector<double> weights = c.meas.weights();
    for (const auto& [start_name, start] :
         {std::pair<std::string, const grid::GridState*>{"flat", &flat},
          {"tracked", &previous.state}}) {
      const std::string tag = c.name + ", " + start_name + " start";
      const WlsResult r = est.estimate(c.meas, *start);
      const WlsResult tight =
          direct_gauss_newton(est, c.meas, *start, Stop::kTight);
      ASSERT_TRUE(r.converged) << tag;
      ASSERT_TRUE(tight.converged) << tag;

      const std::vector<double> e =
          sparse::subtract(index.pack(r.state), index.pack(tight.state));
      const sparse::Csr gain = sparse::normal_matrix(
          est.model().jacobian(c.meas, tight.state), weights);
      std::vector<double> ge(e.size());
      gain.multiply(e, ge);
      EXPECT_LE(sparse::dot(e, ge), 1e-5) << tag;
    }
  }
}

TEST(Wls, EstimateErrorScalesWithNoise) {
  const auto d = make_case14_data();
  grid::MeasurementPlan loud;
  loud.noise_level = 5.0;
  grid::MeasurementGenerator gen(d.kase.network, loud);
  Rng rng(13);
  const grid::MeasurementSet noisy5 = gen.generate(d.pf.state, rng);

  WlsEstimator est(d.kase.network);
  const WlsResult r1 = est.estimate(d.noisy);
  const WlsResult r5 = est.estimate(noisy5);
  ASSERT_TRUE(r1.converged && r5.converged);
  EXPECT_GT(grid::max_vm_error(r5.state, d.pf.state),
            grid::max_vm_error(r1.state, d.pf.state));
}

TEST(Wls, UnderdeterminedSystemRejected) {
  const auto d = make_case14_data();
  grid::MeasurementSet tiny;
  tiny.items.assign(d.noisy.items.begin(), d.noisy.items.begin() + 5);
  WlsEstimator est(d.kase.network);
  EXPECT_THROW(est.estimate(tiny), InvalidInput);
}

TEST(Wls, MalformedMeasurementRejected) {
  const auto d = make_case14_data();
  grid::MeasurementSet bad = d.noisy;
  bad.items[0].bus = 99;
  WlsEstimator est(d.kase.network);
  EXPECT_THROW(est.estimate(bad), InvalidInput);
}

TEST(Wls, WarmStartReducesIterations) {
  const auto d = make_case14_data();
  WlsEstimator est(d.kase.network);
  const WlsResult cold = est.estimate(d.noisy);
  const WlsResult warm = est.estimate(d.noisy, cold.state);
  EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(Wls, AlternateReferenceBusGivesSameRelativeState) {
  const auto d = make_case14_data();
  WlsEstimator ref0(d.kase.network, 0, {});
  WlsEstimator ref5(d.kase.network, 5, {});
  // Pin reference 5's angle to the truth so both solutions share the global
  // frame.
  grid::GridState init5(d.kase.network.num_buses());
  init5.theta[5] = d.pf.state.theta[5];
  const WlsResult a = ref0.estimate(d.noiseless);
  const WlsResult b = ref5.estimate(d.noiseless, init5);
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_LT(grid::max_angle_error(a.state, b.state), 1e-6);
  EXPECT_LT(grid::max_vm_error(a.state, b.state), 1e-7);
}

TEST(Wls, ResidualsAreSmallAtNoiselessSolution) {
  const auto d = make_case14_data();
  WlsEstimator est(d.kase.network);
  const WlsResult r = est.estimate(d.noiseless);
  for (const double res : r.residuals) {
    EXPECT_LT(std::abs(res), 1e-6);
  }
}

TEST(Wls, Ieee118ScaleSolves) {
  const auto g = io::ieee118_dse();
  const grid::PowerFlowResult pf = grid::solve_power_flow(g.kase.network);
  grid::MeasurementGenerator gen(g.kase.network, {});
  Rng rng(3);
  const grid::MeasurementSet meas = gen.generate(pf.state, rng);
  WlsEstimator est(g.kase.network);
  const WlsResult r = est.estimate(meas);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(grid::max_vm_error(r.state, pf.state), 0.01);
}

}  // namespace
}  // namespace gridse::estimation
