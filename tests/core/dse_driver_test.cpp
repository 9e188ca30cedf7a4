#include "core/dse_driver.hpp"

#include <gtest/gtest.h>


#include "analysis/debug_sync.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "runtime/inproc_comm.hpp"
#include "runtime/tcp_comm.hpp"
#include "util/rng.hpp"

namespace gridse::core {
namespace {

class DseDriverTest : public ::testing::Test {
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
    gen_ = std::make_unique<grid::MeasurementGenerator>(
        generated_.kase.network, plan);
    Rng rng(55);
    meas_ = gen_->generate(pf_.state, rng);
    assignment_ = {0, 0, 0, 1, 1, 1, 2, 2, 2};
  }

  std::vector<DseResult> run_all_ranks(
      const std::vector<graph::PartId>& step1,
      const std::vector<graph::PartId>& step2, int ranks = 3) {
    DseDriver driver(generated_.kase.network, d_, {});
    std::vector<DseResult> results(static_cast<std::size_t>(ranks));
    analysis::Mutex mutex{"dse_driver_test::mutex"};
    runtime::InprocWorld world(ranks);
    world.run([&](runtime::Communicator& c) {
      DseResult r = driver.run(c, meas_, step1, step2);
      analysis::LockGuard lock(mutex);
      results[static_cast<std::size_t>(c.rank())] = std::move(r);
    });
    return results;
  }

  io::GeneratedCase generated_;
  decomp::Decomposition d_;
  grid::PowerFlowResult pf_;
  std::unique_ptr<grid::MeasurementGenerator> gen_;
  grid::MeasurementSet meas_;
  std::vector<graph::PartId> assignment_;
};

TEST_F(DseDriverTest, ConvergesAndTracksTruth) {
  const auto results = run_all_ranks(assignment_, assignment_);
  for (const DseResult& r : results) {
    EXPECT_TRUE(r.all_converged);
    EXPECT_LT(grid::max_vm_error(r.state, pf_.state), 0.02);
    EXPECT_LT(grid::max_angle_error(r.state, pf_.state), 0.02);
  }
}

TEST_F(DseDriverTest, AllRanksAgreeOnTheCombinedState) {
  const auto results = run_all_ranks(assignment_, assignment_);
  for (int r = 1; r < 3; ++r) {
    EXPECT_LT(grid::max_vm_error(results[0].state,
                                 results[static_cast<std::size_t>(r)].state),
              1e-12);
    EXPECT_LT(grid::max_angle_error(results[0].state,
                                    results[static_cast<std::size_t>(r)].state),
              1e-12);
  }
}

TEST_F(DseDriverTest, CloseToCentralizedSolution) {
  const auto results = run_all_ranks(assignment_, assignment_);
  const estimation::WlsResult central =
      centralized_estimate(generated_.kase.network, meas_, {});
  ASSERT_TRUE(central.converged);
  // The paper's premise: distribution trades a small accuracy delta for
  // scalability. The DSE estimate must stay within a small factor of the
  // centralized error.
  const double dse_err = grid::max_vm_error(results[0].state, pf_.state);
  const double central_err = grid::max_vm_error(central.state, pf_.state);
  EXPECT_LT(dse_err, central_err * 5.0 + 0.005);
}

TEST_F(DseDriverTest, RemappingBetweenStepsRedistributesAndStillConverges) {
  std::vector<graph::PartId> step2 = assignment_;
  std::swap(step2[3], step2[4]);  // a paper-style subsystem swap
  step2[7] = 0;
  const auto results = run_all_ranks(assignment_, step2);
  for (const DseResult& r : results) {
    EXPECT_TRUE(r.all_converged);
    EXPECT_LT(grid::max_vm_error(r.state, pf_.state), 0.02);
  }
  // the movers shipped their Step-1 payload
  EXPECT_GT(results[1].bytes_sent, 0u);
}

TEST_F(DseDriverTest, TracesCoverHostedSubsystems) {
  const auto results = run_all_ranks(assignment_, assignment_);
  std::vector<int> seen;
  for (const DseResult& r : results) {
    for (const SubsystemTrace& t : r.traces) {
      seen.push_back(t.subsystem);
      EXPECT_TRUE(t.step1.converged);
      EXPECT_TRUE(t.step2.converged);
      EXPECT_GT(t.step2.num_measurements, t.step1.num_measurements);
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_F(DseDriverTest, SingleRankDegeneratesToSequentialDse) {
  const std::vector<graph::PartId> all_zero(9, 0);
  DseDriver driver(generated_.kase.network, d_, {});
  runtime::InprocWorld world(1);
  world.run([&](runtime::Communicator& c) {
    const DseResult r = driver.run(c, meas_, all_zero, all_zero);
    EXPECT_TRUE(r.all_converged);
    EXPECT_LT(grid::max_vm_error(r.state, pf_.state), 0.02);
  });
}

TEST_F(DseDriverTest, WorksOverTcpTransport) {
  DseDriver driver(generated_.kase.network, d_, {});
  runtime::TcpWorld world(3);
  analysis::Mutex mutex{"dse_driver_test::mutex"};
  grid::GridState state0;
  world.run([&](runtime::Communicator& c) {
    const DseResult r = driver.run(c, meas_, assignment_, assignment_);
    EXPECT_TRUE(r.all_converged);
    if (c.rank() == 0) {
      analysis::LockGuard lock(mutex);
      state0 = r.state;
    }
  });
  EXPECT_LT(grid::max_vm_error(state0, pf_.state), 0.02);
}

TEST_F(DseDriverTest, RedistributionToggleOnlyChangesTraffic) {
  std::vector<graph::PartId> step2 = assignment_;
  std::swap(step2[2], step2[3]);  // move subsystem 3 (rank 0) <-> 4 (rank 1)
  const auto run_with = [&](bool ship) {
    DseOptions opts;
    opts.ship_redistribution = ship;
    DseDriver driver(generated_.kase.network, d_, opts);
    runtime::InprocWorld world(3);
    analysis::Mutex mutex{"dse_driver_test::mutex"};
    DseResult out;
    std::size_t total_bytes = 0;
    world.run([&](runtime::Communicator& c) {
      DseResult r = driver.run(c, meas_, assignment_, step2);
      analysis::LockGuard lock(mutex);
      total_bytes += r.bytes_sent;
      if (c.rank() == 0) out = std::move(r);
    });
    return std::make_pair(std::move(out), total_bytes);
  };
  const auto [with_ship, bytes_with] = run_with(true);
  const auto [without_ship, bytes_without] = run_with(false);
  EXPECT_TRUE(with_ship.all_converged);
  EXPECT_TRUE(without_ship.all_converged);
  // identical estimates either way (the payload is costed, not consumed)
  EXPECT_LT(grid::max_vm_error(with_ship.state, without_ship.state), 1e-12);
  // but the raw-measurement shipment shows up in the traffic accounting
  EXPECT_GT(bytes_with, bytes_without);
}

TEST_F(DseDriverTest, NonConvergenceIsReportedNotHidden) {
  // Starve the local solvers of iterations: every rank must see
  // all_converged == false in the combined result (a silent bad estimate is
  // the one unacceptable outcome for a control-room tool).
  DseOptions crippled;
  crippled.local.wls.max_iterations = 1;
  crippled.local.wls.tolerance = 1e-14;
  DseDriver driver(generated_.kase.network, d_, crippled);
  runtime::InprocWorld world(3);
  analysis::Mutex mutex{"dse_driver_test::mutex"};
  std::vector<bool> converged(3, true);
  world.run([&](runtime::Communicator& c) {
    const DseResult r = driver.run(c, meas_, assignment_, assignment_);
    analysis::LockGuard lock(mutex);
    converged[static_cast<std::size_t>(c.rank())] = r.all_converged;
  });
  for (const bool ok : converged) {
    EXPECT_FALSE(ok);
  }
}

TEST_F(DseDriverTest, RejectsBadAssignments) {
  DseDriver driver(generated_.kase.network, d_, {});
  runtime::InprocWorld world(2);
  const std::vector<graph::PartId> bad{0, 0, 0, 1, 1, 1, 2, 2, 2};  // rank 2 absent
  world.run([&](runtime::Communicator& c) {
    EXPECT_THROW(driver.run(c, meas_, bad, bad), InternalError);
  });
}

TEST_F(DseDriverTest, MultiRoundStepTwoConvergesAndNeverHurts) {
  DseOptions multi;
  multi.step2_rounds = 3;
  DseDriver driver(generated_.kase.network, d_, multi);
  runtime::InprocWorld world(3);
  analysis::Mutex mutex{"dse_driver_test::mutex"};
  DseResult multi_result;
  world.run([&](runtime::Communicator& c) {
    DseResult r = driver.run(c, meas_, assignment_, assignment_);
    if (c.rank() == 0) {
      analysis::LockGuard lock(mutex);
      multi_result = std::move(r);
    }
  });
  EXPECT_TRUE(multi_result.all_converged);

  const auto single = run_all_ranks(assignment_, assignment_);
  // Extra exchange rounds must not degrade the estimate materially.
  EXPECT_LE(grid::max_vm_error(multi_result.state, pf_.state),
            grid::max_vm_error(single[0].state, pf_.state) * 1.2 + 1e-6);
  // ...and they do cost additional traffic.
  EXPECT_GT(multi_result.bytes_sent, single[0].bytes_sent);
}

TEST_F(DseDriverTest, WeccScaleScenarioConverges) {
  const io::GeneratedCase wecc = io::wecc37();
  decomp::Decomposition wd =
      decomp::decompose(wecc.kase.network, wecc.subsystem_of_bus);
  decomp::analyze_sensitivity(wecc.kase.network, wd, {});
  const grid::PowerFlowResult wpf = grid::solve_power_flow(wecc.kase.network);
  grid::MeasurementPlan plan;
  for (const decomp::Subsystem& s : wd.subsystems) {
    plan.pmu_buses.push_back(s.buses.front());
  }
  grid::MeasurementGenerator gen(wecc.kase.network, plan);
  Rng rng(3);
  const grid::MeasurementSet meas = gen.generate(wpf.state, rng);

  std::vector<graph::PartId> assignment(37);
  for (int s = 0; s < 37; ++s) {
    assignment[static_cast<std::size_t>(s)] = static_cast<graph::PartId>(s % 4);
  }
  DseDriver driver(wecc.kase.network, wd, {});
  runtime::InprocWorld world(4);
  analysis::Mutex mutex{"dse_driver_test::mutex"};
  DseResult result;
  world.run([&](runtime::Communicator& c) {
    DseResult r = driver.run(c, meas, assignment, assignment);
    if (c.rank() == 0) {
      analysis::LockGuard lock(mutex);
      result = std::move(r);
    }
  });
  EXPECT_TRUE(result.all_converged);
  EXPECT_LT(grid::max_vm_error(result.state, wpf.state), 0.02);
  EXPECT_LT(grid::max_angle_error(result.state, wpf.state), 0.03);
}

TEST_F(DseDriverTest, CondensationShrinksPseudoTrafficAndTracksTruth) {
  const auto run_with = [&](bool condense) {
    DseOptions opts;
    opts.local.condense_boundary = condense;
    DseDriver driver(generated_.kase.network, d_, opts);
    runtime::InprocWorld world(3);
    analysis::Mutex mutex{"dse_driver_test::mutex"};
    DseResult out;
    std::size_t total_bytes = 0;
    world.run([&](runtime::Communicator& c) {
      DseResult r = driver.run(c, meas_, assignment_, assignment_);
      analysis::LockGuard lock(mutex);
      total_bytes += r.bytes_sent;
      if (c.rank() == 0) out = std::move(r);
    });
    return std::make_pair(std::move(out), total_bytes);
  };
  const auto [condensed, bytes_condensed] = run_with(true);
  const auto [plain, bytes_plain] = run_with(false);
  EXPECT_TRUE(condensed.all_converged);
  EXPECT_TRUE(plain.all_converged);
  // The condensed estimate still tracks the truth...
  EXPECT_LT(grid::max_vm_error(condensed.state, pf_.state), 0.02);
  EXPECT_LT(grid::max_angle_error(condensed.state, pf_.state), 0.02);
  // ...while Step 2 ships condensed boundary info only: the
  // sensitive-internal records of the plain exchange are folded into the
  // boundary marginals, so the cycle's total traffic drops.
  EXPECT_LT(bytes_condensed, bytes_plain);
}

TEST_F(DseDriverTest, SharedPlanRegistryIsReusedAcrossCycles) {
  const auto registry = std::make_shared<PlanRegistry>();
  DseOptions opts;
  opts.plan_registry = registry;
  DseDriver driver(generated_.kase.network, d_, opts);
  grid::GridState first_state;
  grid::GridState second_state;
  for (int cycle = 0; cycle < 2; ++cycle) {
    runtime::InprocWorld world(3);
    analysis::Mutex mutex{"dse_driver_test::mutex"};
    world.run([&](runtime::Communicator& c) {
      DseResult r = driver.run(c, meas_, assignment_, assignment_);
      EXPECT_TRUE(r.all_converged);
      if (c.rank() == 0) {
        analysis::LockGuard lock(mutex);
        (cycle == 0 ? first_state : second_state) = std::move(r.state);
      }
    });
  }
  // Same measurements, same topology: the warm cycle reuses every symbolic
  // plan (no new analyses) and reproduces the estimate exactly.
  const auto stats = registry->stats();
  EXPECT_EQ(stats.subsystems, 9u);
  EXPECT_GT(stats.cache.plan_hits, 0u);
  EXPECT_LT(grid::max_vm_error(first_state, second_state), 1e-12);

  // The remap hook: invalidation drops the cached plans, the next cycle
  // re-analyzes from scratch and still agrees.
  registry->invalidate_all();
  const auto misses_after_invalidate = registry->stats().cache.plan_misses;
  runtime::InprocWorld world(3);
  analysis::Mutex mutex{"dse_driver_test::mutex"};
  grid::GridState third_state;
  world.run([&](runtime::Communicator& c) {
    DseResult r = driver.run(c, meas_, assignment_, assignment_);
    if (c.rank() == 0) {
      analysis::LockGuard lock(mutex);
      third_state = std::move(r.state);
    }
  });
  EXPECT_GT(registry->stats().cache.plan_misses, misses_after_invalidate);
  EXPECT_LT(grid::max_vm_error(first_state, third_state), 1e-12);
}

TEST_F(DseDriverTest, BatchedCondensedCombinationConverges) {
  // The direct solver, condensed exchange and a persistent plan registry
  // compose: both cycles converge and track the truth, and the second one
  // reuses the first one's symbolic plans and reproduces its estimate.
  const auto registry = std::make_shared<PlanRegistry>();
  DseOptions opts;
  opts.local.wls.solver = estimation::LinearSolver::kLdlt;
  opts.local.condense_boundary = true;
  opts.plan_registry = registry;
  DseDriver driver(generated_.kase.network, d_, opts);
  std::vector<grid::GridState> states;
  std::vector<std::uint64_t> misses;
  for (int cycle = 0; cycle < 2; ++cycle) {
    runtime::InprocWorld world(3);
    analysis::Mutex mutex{"dse_driver_test::mutex"};
    DseResult result;
    world.run([&](runtime::Communicator& c) {
      DseResult r = driver.run(c, meas_, assignment_, assignment_);
      if (c.rank() == 0) {
        analysis::LockGuard lock(mutex);
        result = std::move(r);
      }
    });
    EXPECT_TRUE(result.all_converged);
    EXPECT_LT(grid::max_vm_error(result.state, pf_.state), 0.02);
    EXPECT_LT(grid::max_angle_error(result.state, pf_.state), 0.02);
    states.push_back(std::move(result.state));
    misses.push_back(registry->stats().cache.plan_misses);
  }
  EXPECT_EQ(misses[1], misses[0]);
  EXPECT_LT(grid::max_vm_error(states[0], states[1]), 1e-12);
  EXPECT_LT(grid::max_angle_error(states[0], states[1]), 1e-12);
}

TEST_F(DseDriverTest, ExchangeVolumeIsSmall) {
  // The paper's selling point: only pseudo measurements move between
  // clusters, not raw SCADA. Total traffic for the whole cycle must be tiny
  // relative to the raw measurement volume.
  const auto results = run_all_ranks(assignment_, assignment_);
  std::size_t total = 0;
  for (const DseResult& r : results) total += r.bytes_sent;
  const std::size_t raw_size = meas_.size() * sizeof(grid::Measurement);
  EXPECT_LT(total, raw_size * 3);
}

}  // namespace
}  // namespace gridse::core
