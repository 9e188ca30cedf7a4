#include "estimation/wls.hpp"

#include <gtest/gtest.h>

#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "io/synthetic.hpp"
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

class WlsSolverSweep
    : public ::testing::TestWithParam<
          std::tuple<LinearSolver, sparse::PreconditionerKind>> {};

TEST_P(WlsSolverSweep, AllSolversAgree) {
  const auto [solver, precond] = GetParam();
  const auto d = make_case14_data();
  WlsOptions opts;
  opts.solver = solver;
  opts.preconditioner = precond;
  WlsEstimator est(d.kase.network, opts);
  const WlsResult r = est.estimate(d.noisy);
  ASSERT_TRUE(r.converged);
  // Every solver/preconditioner combination solves the same normal
  // equations; the estimates must agree to solver tolerance.
  WlsOptions ref_opts;
  ref_opts.solver = LinearSolver::kDense;
  WlsEstimator ref(d.kase.network, ref_opts);
  const WlsResult rr = ref.estimate(d.noisy);
  EXPECT_LT(grid::max_vm_error(r.state, rr.state), 1e-7);
  EXPECT_LT(grid::max_angle_error(r.state, rr.state), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, WlsSolverSweep,
    ::testing::Values(
        std::make_tuple(LinearSolver::kPcg, sparse::PreconditionerKind::kNone),
        std::make_tuple(LinearSolver::kPcg, sparse::PreconditionerKind::kJacobi),
        std::make_tuple(LinearSolver::kPcg, sparse::PreconditionerKind::kSsor),
        std::make_tuple(LinearSolver::kPcg, sparse::PreconditionerKind::kIc0),
        std::make_tuple(LinearSolver::kPcg, sparse::PreconditionerKind::kLdlt),
        std::make_tuple(LinearSolver::kLdlt, sparse::PreconditionerKind::kNone),
        std::make_tuple(LinearSolver::kDense,
                        sparse::PreconditionerKind::kNone)),
    [](const auto& param_info) {
      const LinearSolver solver = std::get<0>(param_info.param);
      const sparse::PreconditionerKind precond = std::get<1>(param_info.param);
      std::string name = solver == LinearSolver::kPcg
                             ? "pcg"
                             : (solver == LinearSolver::kLdlt ? "ldlt" : "dense");
      switch (precond) {
        case sparse::PreconditionerKind::kNone:
          name += "_none";
          break;
        case sparse::PreconditionerKind::kJacobi:
          name += "_jacobi";
          break;
        case sparse::PreconditionerKind::kSsor:
          name += "_ssor";
          break;
        case sparse::PreconditionerKind::kIc0:
          name += "_ic0";
          break;
        case sparse::PreconditionerKind::kLdlt:
          name += "_ldlt";
          break;
      }
      return name;
    });

// The default PCG keeps the first iteration's LDLᵀ factor as its
// preconditioner; it must walk the same Gauss–Newton path as LDLᵀ every
// iteration and as the paper's per-iteration IC(0).
TEST(Wls, FirstFactorPreconditionerMatchesDirectAndIc0) {
  const grid::Network net118 = io::ieee118_dse().kase.network;
  const io::Case case14 = io::ieee14();
  for (const grid::Network* net : {&case14.network, &net118}) {
    const grid::PowerFlowResult pf = grid::solve_power_flow(*net);
    grid::MeasurementGenerator gen(*net, {});
    Rng rng(17);
    const grid::MeasurementSet meas = gen.generate(pf.state, rng);

    const WlsResult by_default = WlsEstimator(*net).estimate(meas);
    WlsOptions direct_opts;
    direct_opts.solver = LinearSolver::kLdlt;
    const WlsResult direct = WlsEstimator(*net, direct_opts).estimate(meas);
    WlsOptions ic0_opts;
    ic0_opts.preconditioner = sparse::PreconditionerKind::kIc0;
    const WlsResult ic0 = WlsEstimator(*net, ic0_opts).estimate(meas);

    const std::string tag = std::to_string(net->num_buses()) + " buses";
    ASSERT_TRUE(by_default.converged) << tag;
    EXPECT_EQ(by_default.iterations, direct.iterations) << tag;
    EXPECT_EQ(by_default.iterations, ic0.iterations) << tag;
    EXPECT_LT(by_default.inner_iterations, ic0.inner_iterations) << tag;
    for (const WlsResult* other : {&direct, &ic0}) {
      EXPECT_LT(grid::max_vm_error(by_default.state, other->state), 1e-9)
          << tag;
      EXPECT_LT(grid::max_angle_error(by_default.state, other->state), 1e-9)
          << tag;
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

TEST(Wls, ParsesLinearSolverNames) {
  EXPECT_EQ(parse_linear_solver("pcg"), LinearSolver::kPcg);
  EXPECT_EQ(parse_linear_solver("ldlt"), LinearSolver::kLdlt);
  EXPECT_EQ(parse_linear_solver("dense"), LinearSolver::kDense);
  EXPECT_THROW(parse_linear_solver("cholesky"), InvalidInput);
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

TEST(Wls, RegularizationKeepsNearSingularSolvable) {
  const auto d = make_case14_data();
  WlsOptions opts;
  opts.regularization = 1e-6;
  WlsEstimator est(d.kase.network, opts);
  const WlsResult r = est.estimate(d.noisy);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace gridse::estimation
