#include "core/hierarchical.hpp"

#include <gtest/gtest.h>

#include "analysis/debug_sync.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "runtime/inproc_comm.hpp"
#include "util/rng.hpp"
#include "state_golden.hpp"

namespace gridse::core {
namespace {

class HierarchicalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    generated_ = io::ieee118_dse();
    d_ = decomp::decompose(generated_.kase.network,
                           generated_.subsystem_of_bus);
    decomp::analyze_sensitivity(generated_.kase.network, d_, {});
    pf_ = grid::solve_power_flow(generated_.kase.network);
    grid::MeasurementPlan plan;
    for (const decomp::Subsystem& s : d_.subsystems) {
      plan.pmu_buses.push_back(s.buses.front());
    }
    grid::MeasurementGenerator gen(generated_.kase.network, plan);
    Rng rng(77);
    meas_ = gen.generate(pf_.state, rng);
    assignment_ = {0, 0, 0, 1, 1, 1, 2, 2, 2};
  }

  io::GeneratedCase generated_;
  decomp::Decomposition d_;
  grid::PowerFlowResult pf_;
  grid::MeasurementSet meas_;
  std::vector<graph::PartId> assignment_;
};

TEST_F(HierarchicalTest, ConvergesAndMatchesTruth) {
  HierarchicalDriver driver(generated_.kase.network, d_);
  runtime::InprocWorld world(3);
  analysis::Mutex mutex{"hierarchical_test::mutex"};
  std::vector<HierarchicalResult> results(3);
  world.run([&](runtime::Communicator& c) {
    HierarchicalResult r = driver.run(c, meas_, assignment_);
    analysis::LockGuard lock(mutex);
    results[static_cast<std::size_t>(c.rank())] = std::move(r);
  });
  for (const HierarchicalResult& r : results) {
    EXPECT_TRUE(r.all_converged);
    EXPECT_LT(grid::max_vm_error(r.state, pf_.state), 0.02);
  }
}

TEST_F(HierarchicalTest, CoordinatorBroadcastsIdenticalState) {
  HierarchicalDriver driver(generated_.kase.network, d_);
  runtime::InprocWorld world(3);
  analysis::Mutex mutex{"hierarchical_test::mutex"};
  std::vector<grid::GridState> states(3);
  world.run([&](runtime::Communicator& c) {
    const HierarchicalResult r = driver.run(c, meas_, assignment_);
    analysis::LockGuard lock(mutex);
    states[static_cast<std::size_t>(c.rank())] = r.state;
  });
  for (int r = 1; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(
        grid::max_vm_error(states[0], states[static_cast<std::size_t>(r)]),
        0.0);
  }
}

TEST_F(HierarchicalTest, CoordinationRefinesStepOne) {
  // The coordinator's pass (with tie-line telemetry) must not be worse than
  // the raw assembly of local solutions.
  HierarchicalDriver driver(generated_.kase.network, d_);
  runtime::InprocWorld world(3);
  analysis::Mutex mutex{"hierarchical_test::mutex"};
  grid::GridState refined;
  world.run([&](runtime::Communicator& c) {
    const HierarchicalResult r = driver.run(c, meas_, assignment_);
    if (c.rank() == 0) {
      analysis::LockGuard lock(mutex);
      refined = r.state;
    }
  });
  // Compare against a pure Step-1 assembly (DSE driver without Step 2 would
  // give that; approximate it by running local estimators directly).
  double assembled_err = 0.0;
  const decomp::MeasurementRoute route =
      decomp::route_measurements(d_, generated_.kase.network, meas_);
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    LocalEstimator est(generated_.kase.network, d_, s, {});
    est.run_step1(meas_, route);
    for (const BusStateRecord& rec : est.step1_all_states()) {
      assembled_err = std::max(
          assembled_err,
          std::abs(rec.vm -
                   pf_.state.vm[static_cast<std::size_t>(rec.bus)]));
    }
  }
  EXPECT_LE(grid::max_vm_error(refined, pf_.state), assembled_err * 1.5);
}

TEST_F(HierarchicalTest, GoldenCoordinatorState) {
  // Pins the fixed coordinator settings (solution sigma 0.005, default
  // coordinator WLS, default local estimators) through the broadcast state.
  HierarchicalDriver driver(generated_.kase.network, d_);
  runtime::InprocWorld world(3);
  analysis::Mutex mutex{"hierarchical_test::mutex"};
  HierarchicalResult rank0;
  world.run([&](runtime::Communicator& c) {
    HierarchicalResult r = driver.run(c, meas_, assignment_);
    if (c.rank() == 0) {
      analysis::LockGuard lock(mutex);
      rank0 = std::move(r);
    }
  });
  EXPECT_TRUE(rank0.all_converged);
  expect_state_golden(rank0.state,
                      {-11.224699928291692,
                       120.34183886690349,
                       -708.11488101974339,
                       7163.7544471751407,
                       {{0, 1.0400084632049076},
                        {-0.11990775382603454, 1.0281190923691148},
                        {-0.1295782657988592, 1.0080537532047944},
                        {-0.087017709161649581, 1.0081758816467037},
                        {-0.099416871349331123, 1.0116958479988984},
                        {-0.11032942124044498, 1.0096327849996438},
                        {-0.1177995651485241, 1.0156778227317389},
                        {-0.082338341285485686, 1.0421927391036261}}});
}

TEST_F(HierarchicalTest, SingleRankWorks) {
  HierarchicalDriver driver(generated_.kase.network, d_);
  runtime::InprocWorld world(1);
  const std::vector<graph::PartId> all_zero(9, 0);
  world.run([&](runtime::Communicator& c) {
    const HierarchicalResult r = driver.run(c, meas_, all_zero);
    EXPECT_TRUE(r.all_converged);
  });
}

}  // namespace
}  // namespace gridse::core
