#include "estimation/wls.hpp"

#include <gtest/gtest.h>

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

// Path-independent correctness: at the returned estimate the WLS gradient
// Hᵀ W (z − h(x̂)) vanishes (first-order optimality), which needs no second
// solver to compare against. The gradient is compared with its value at the
// flat start, so the check is free of the weights' scale.
TEST(Wls, GradientVanishesAtTheEstimate) {
  struct Case {
    std::string name;
    grid::Network network;
    int gauss_newton_iterations;
  };
  const std::vector<Case> cases{{"ieee14", io::ieee14().network, 4},
                                {"ieee118", io::ieee118_dse().kase.network, 4},
                                {"wecc37", io::wecc37().kase.network, 4}};
  for (const Case& c : cases) {
    const grid::PowerFlowResult pf = grid::solve_power_flow(c.network);
    grid::MeasurementGenerator gen(c.network, {});
    Rng rng(17);
    const grid::MeasurementSet meas = gen.generate(pf.state, rng);
    const std::vector<double> weights = meas.weights();

    const WlsEstimator est(c.network);
    const WlsResult r = est.estimate(meas);
    ASSERT_TRUE(r.converged) << c.name;
    EXPECT_EQ(r.iterations, c.gauss_newton_iterations) << c.name;

    const grid::GridState flat(c.network.num_buses());
    const std::vector<double> flat_residuals =
        sparse::subtract(meas.values(), est.model().evaluate(meas, flat));
    const double gradient_at_flat = sparse::norm_inf(sparse::normal_rhs(
        est.model().jacobian(meas, flat), weights, flat_residuals));
    const double gradient = sparse::norm_inf(sparse::normal_rhs(
        est.model().jacobian(meas, r.state), weights, r.residuals));
    EXPECT_LT(gradient, 1e-9 * gradient_at_flat) << c.name;
  }
}

// Reference Gauss–Newton with an exact LDLᵀ factor of every iteration's
// gain: the direct solve the estimator's PCG must reproduce.
WlsResult direct_gauss_newton(const WlsEstimator& est,
                              const grid::MeasurementSet& meas) {
  const grid::StateIndex& index = est.model().state_index();
  const std::vector<double> weights = meas.weights();
  std::vector<double> x =
      index.pack(grid::GridState(est.model().network().num_buses()));
  WlsResult result;
  for (int iter = 0; iter < est.options().max_iterations; ++iter) {
    const grid::GridState state = index.unpack(x);
    const sparse::Csr jac = est.model().jacobian(meas, state);
    const std::vector<double> r =
        sparse::subtract(meas.values(), est.model().evaluate(meas, state));
    sparse::SparseLdlt ldlt;
    ldlt.factorize(sparse::normal_matrix(jac, weights));
    const std::vector<double> dx =
        ldlt.solve(sparse::normal_rhs(jac, weights, r));
    sparse::axpy(1.0, dx, x);
    result.iterations = iter + 1;
    if (sparse::norm_inf(dx) < est.options().tolerance) {
      result.converged = true;
      break;
    }
  }
  result.state = index.unpack(x);
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
    const WlsResult direct = direct_gauss_newton(est, meas);

    const std::string tag = std::to_string(net->num_buses()) + " buses";
    ASSERT_TRUE(pcg.converged) << tag;
    ASSERT_TRUE(direct.converged) << tag;
    EXPECT_EQ(pcg.iterations, direct.iterations) << tag;
    EXPECT_LT(grid::max_vm_error(pcg.state, direct.state), 1e-9) << tag;
    EXPECT_LT(grid::max_angle_error(pcg.state, direct.state), 1e-9) << tag;
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
