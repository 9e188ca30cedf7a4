#include "estimation/robust.hpp"

#include <gtest/gtest.h>

#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gridse::estimation {
namespace {

class RobustTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kase_ = io::ieee14();
    pf_ = grid::solve_power_flow(kase_.network);
    grid::MeasurementGenerator gen(kase_.network, {});
    Rng rng(101);
    clean_ = gen.generate(pf_.state, rng);
  }
  io::Case kase_;
  grid::PowerFlowResult pf_;
  grid::MeasurementSet clean_;
};

TEST_F(RobustTest, MatchesWlsOnCleanData) {
  const HuberEstimator huber(kase_.network);
  const WlsEstimator wls(kase_.network);
  const RobustResult hr = huber.estimate(clean_);
  const WlsResult wr = wls.estimate(clean_);
  ASSERT_TRUE(hr.wls.converged);
  EXPECT_LT(grid::max_vm_error(hr.wls.state, wr.state), 5e-4);
  // Nearly every weight stays 1 on clean Gaussian data.
  int downweighted = 0;
  for (const double w : hr.influence) {
    if (w < 0.999) ++downweighted;
  }
  EXPECT_LT(downweighted, static_cast<int>(clean_.size()) / 5);
}

TEST_F(RobustTest, AlternateReferenceBusGivesSameRelativeState) {
  grid::MeasurementSet bad = clean_;
  bad.items[8].value += 1.0;
  const HuberEstimator slack(kase_.network);
  const HuberEstimator ref5(kase_.network, 5, {});
  // Pin reference 5's angle to the slack-referenced solution so both share
  // the global frame.
  const RobustResult a = slack.estimate(bad);
  grid::GridState init5(kase_.network.num_buses());
  init5.theta[5] = a.wls.state.theta[5];
  const RobustResult b = ref5.estimate(bad, init5);
  ASSERT_TRUE(a.wls.converged && b.wls.converged);
  EXPECT_LT(grid::max_angle_error(a.wls.state, b.wls.state), 1e-6);
  EXPECT_LT(grid::max_vm_error(a.wls.state, b.wls.state), 1e-6);
  EXPECT_LT(b.influence[8], 0.1);
}

TEST_F(RobustTest, BoundsInfluenceOfGrossError) {
  grid::MeasurementSet bad = clean_;
  bad.items[8].value += 1.0;

  const WlsEstimator wls(kase_.network);
  const WlsResult contaminated = wls.estimate(bad);
  const HuberEstimator huber(kase_.network);
  const RobustResult robust = huber.estimate(bad);

  ASSERT_TRUE(robust.wls.converged);
  // The Huber estimate must be materially closer to the truth than raw WLS
  // on contaminated data.
  EXPECT_LT(grid::max_vm_error(robust.wls.state, pf_.state),
            grid::max_vm_error(contaminated.state, pf_.state));
  // ...and the outlier's influence weight must collapse.
  EXPECT_LT(robust.influence[8], 0.1);
}

TEST_F(RobustTest, MultipleOutliersAllDownweighted) {
  grid::MeasurementSet bad = clean_;
  const std::size_t victims[] = {4, 33, 77};
  for (const std::size_t v : victims) {
    bad.items[v].value -= 0.8;
  }
  const HuberEstimator huber(kase_.network);
  const RobustResult robust = huber.estimate(bad);
  for (const std::size_t v : victims) {
    EXPECT_LT(robust.influence[v], 0.15) << "victim " << v;
  }
  EXPECT_LT(grid::max_vm_error(robust.wls.state, pf_.state), 0.01);
}

TEST_F(RobustTest, GammaControlsAggressiveness) {
  grid::MeasurementSet bad = clean_;
  bad.items[8].value += 0.3;
  RobustOptions soft;
  soft.gamma = 6.0;  // nearly WLS
  RobustOptions hard;
  hard.gamma = 1.0;
  const RobustResult rs = HuberEstimator(kase_.network, soft).estimate(bad);
  const RobustResult rh = HuberEstimator(kase_.network, hard).estimate(bad);
  EXPECT_GE(rs.influence[8], rh.influence[8]);
}

TEST_F(RobustTest, ConvergesWithinIterationBudget) {
  const HuberEstimator huber(kase_.network);
  const RobustResult r = huber.estimate(clean_);
  EXPECT_LE(r.reweight_iterations, 10);
  EXPECT_GE(r.reweight_iterations, 1);
}

TEST(RobustOptionsValidation, RejectsBadParameters) {
  const io::Case c = io::ieee14();
  RobustOptions bad;
  bad.gamma = 0.0;
  EXPECT_THROW(HuberEstimator(c.network, bad), InternalError);
  bad.gamma = 1.5;
  bad.max_reweight_iterations = 0;
  EXPECT_THROW(HuberEstimator(c.network, bad), InternalError);
}

}  // namespace
}  // namespace gridse::estimation
