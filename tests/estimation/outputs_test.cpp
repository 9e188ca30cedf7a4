#include "estimation/outputs.hpp"

#include <gtest/gtest.h>

#include "estimation/wls.hpp"
#include "grid/dc_powerflow.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "util/rng.hpp"

namespace gridse::estimation {
namespace {

class OutputsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kase_ = io::ieee14();
    pf_ = grid::solve_power_flow(kase_.network);
    report_ = build_solution_report(kase_.network, pf_.state);
  }
  io::Case kase_;
  grid::PowerFlowResult pf_;
  SolutionReport report_;
};

TEST_F(OutputsTest, LossesAreNonNegativePerBranch) {
  ASSERT_EQ(report_.flows.size(), kase_.network.num_branches());
  for (const BranchFlowEstimate& f : report_.flows) {
    EXPECT_GE(f.p_loss(), -1e-10) << "branch " << f.branch;
  }
  EXPECT_GT(report_.total_loss, 0.0);
}

TEST_F(OutputsTest, TotalLossEqualsGenerationMinusLoad) {
  // Sum of injections over all buses = total losses (power balance).
  double injection_sum = 0.0;
  for (const double p : report_.p_injection) {
    injection_sum += p;
  }
  EXPECT_NEAR(injection_sum, report_.total_loss, 1e-8);
}

TEST_F(OutputsTest, FlowsSumToInjections) {
  for (grid::BusIndex b = 0; b < kase_.network.num_buses(); ++b) {
    double from_flows = 0.0;
    for (const std::size_t bi : kase_.network.branches_at(b)) {
      const BranchFlowEstimate& f = report_.flows[bi];
      from_flows += (kase_.network.branch(bi).from == b) ? f.p_from : f.p_to;
    }
    const grid::Bus& bus = kase_.network.bus(b);
    const double shunt = bus.gs * pf_.state.vm[static_cast<std::size_t>(b)] *
                         pf_.state.vm[static_cast<std::size_t>(b)];
    EXPECT_NEAR(from_flows + shunt,
                report_.p_injection[static_cast<std::size_t>(b)], 1e-9)
        << "bus " << b;
  }
}

// Negative magnitudes (a diverged estimate) negate every phasor, so each
// branch flow S = V·conj(I) comes out unchanged.
TEST_F(OutputsTest, FlowsAcceptNegativeMagnitudes) {
  grid::GridState negated = pf_.state;
  for (double& vm : negated.vm) vm = -vm;
  const SolutionReport report = build_solution_report(kase_.network, negated);
  ASSERT_EQ(report.flows.size(), report_.flows.size());
  for (std::size_t i = 0; i < report.flows.size(); ++i) {
    EXPECT_NEAR(report.flows[i].p_from, report_.flows[i].p_from, 1e-12) << i;
    EXPECT_NEAR(report.flows[i].q_from, report_.flows[i].q_from, 1e-12) << i;
    EXPECT_NEAR(report.flows[i].p_to, report_.flows[i].p_to, 1e-12) << i;
    EXPECT_NEAR(report.flows[i].q_to, report_.flows[i].q_to, 1e-12) << i;
  }
}

TEST_F(OutputsTest, LoadingsUseRatings) {
  grid::assign_ratings_from_base_case(kase_.network, 1.5, 0.2);
  const SolutionReport rated =
      build_solution_report(kase_.network, pf_.state);
  const auto loadings = rated.loadings(kase_.network);
  ASSERT_EQ(loadings.size(), kase_.network.num_branches());
  bool any_positive = false;
  for (const double l : loadings) {
    EXPECT_GE(l, 0.0);
    EXPECT_LE(l, 1.1);  // base case within its own margin-1.5 ratings
    any_positive |= l > 0.0;
  }
  EXPECT_TRUE(any_positive);
}

TEST_F(OutputsTest, EstimatedStateReportTracksTrueReport) {
  grid::MeasurementGenerator gen(kase_.network, {});
  Rng rng(31);
  const grid::MeasurementSet meas = gen.generate(pf_.state, rng);
  const WlsEstimator est(kase_.network);
  const WlsResult wls = est.estimate(meas);
  const SolutionReport estimated =
      build_solution_report(kase_.network, wls.state);
  for (std::size_t bi = 0; bi < report_.flows.size(); ++bi) {
    EXPECT_NEAR(estimated.flows[bi].p_from, report_.flows[bi].p_from, 0.05);
  }
  EXPECT_NEAR(estimated.total_loss, report_.total_loss, 0.02);
}

TEST_F(OutputsTest, ConfidenceIntervalsCoverTheTruth) {
  grid::MeasurementGenerator gen(kase_.network, {});
  Rng rng(41);
  const grid::MeasurementSet meas = gen.generate(pf_.state, rng);
  const WlsEstimator est(kase_.network);
  const WlsResult wls = est.estimate(meas);
  const StateConfidence conf =
      estimate_confidence(est.model(), meas, wls.state);

  const grid::BusIndex ref = kase_.network.slack_bus();
  EXPECT_DOUBLE_EQ(conf.theta_stddev[static_cast<std::size_t>(ref)], 0.0);
  int outside_4sigma = 0;
  for (grid::BusIndex b = 0; b < kase_.network.num_buses(); ++b) {
    const auto bi = static_cast<std::size_t>(b);
    EXPECT_GT(conf.vm_stddev[bi], 0.0);
    EXPECT_LT(conf.vm_stddev[bi], 0.01);  // dense redundancy: tight estimates
    if (std::abs(wls.state.vm[bi] - pf_.state.vm[bi]) >
        4.0 * conf.vm_stddev[bi]) {
      ++outside_4sigma;
    }
    if (b != ref && std::abs(wls.state.theta[bi] - pf_.state.theta[bi]) >
                        4.0 * conf.theta_stddev[bi] + 1e-6) {
      ++outside_4sigma;
    }
  }
  // 4-sigma misses should be essentially absent over ~27 states.
  EXPECT_LE(outside_4sigma, 1);
}

TEST_F(OutputsTest, ConfidenceShrinksWithMoreAccurateMeters) {
  grid::MeasurementPlan precise;
  precise.noise_level = 0.25;
  grid::MeasurementGenerator gen_precise(kase_.network, precise);
  grid::MeasurementGenerator gen_default(kase_.network, {});
  Rng rng(43);
  const grid::MeasurementSet meas_p = gen_precise.generate(pf_.state, rng);
  const grid::MeasurementSet meas_d = gen_default.generate(pf_.state, rng);
  const WlsEstimator est(kase_.network);
  const WlsResult rp = est.estimate(meas_p);
  const WlsResult rd = est.estimate(meas_d);
  const StateConfidence cp = estimate_confidence(est.model(), meas_p, rp.state);
  const StateConfidence cd = estimate_confidence(est.model(), meas_d, rd.state);
  for (std::size_t b = 0; b < cp.vm_stddev.size(); ++b) {
    EXPECT_LT(cp.vm_stddev[b], cd.vm_stddev[b]);
  }
}

TEST(Outputs, SizeMismatchRejected) {
  const io::Case c = io::ieee14();
  EXPECT_THROW(build_solution_report(c.network, grid::GridState(5)),
               InternalError);
}

}  // namespace
}  // namespace gridse::estimation
