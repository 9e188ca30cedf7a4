#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/debug_sync.hpp"
#include "core/dse_driver.hpp"
#include "decomp/sensitivity.hpp"
#include "fault/fault.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "medici/medici_comm.hpp"
#include "runtime/resilience.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gridse::core {
namespace {

/// The IEEE-118 decomposition has 9 subsystems; pseudo-measurement tags
/// occupy [16, 16 + m*m + m] (see dse_driver.cpp's tag layout). Fault rules
/// scoped to this window never touch barriers, redistribution, or combine.
constexpr int kM = 9;
constexpr int kPseudoTagLo = 16;
constexpr int kPseudoTagHi = 16 + kM * kM + kM;

/// Chaos suite: the 2-cluster IEEE-118 system under seeded fault schedules.
/// Skipped (not failed) when the fault layer is compiled out.
class ChaosDseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kEnabled) {
      GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
    }
    fault::clear();
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
    Rng rng(55);
    meas_ = gen.generate(pf_.state, rng);
    // Two clusters, the paper's smallest distributed configuration.
    assignment_ = {0, 0, 0, 0, 0, 1, 1, 1, 1};
  }

  void TearDown() override { fault::clear(); }

  struct ChaosRun {
    DseResult rank0;
    std::vector<fault::InjectionRecord> log;
    std::string log_json;
    std::uint64_t injected = 0;
    std::uint64_t retries = 0;
    double seconds = 0.0;
  };

  [[nodiscard]] static DseOptions chaos_options(
      std::chrono::milliseconds deadline) {
    DseOptions opts;
    opts.exchange_deadline = deadline;
    return opts;
  }

  ChaosRun run_chaos(const fault::FaultPlan& plan, const DseOptions& opts,
                     int retry_attempts = runtime::RetryPolicy{}.max_attempts) {
    fault::install(plan);
    DseDriver driver(generated_.kase.network, d_, opts);
    runtime::ResilienceConfig res;
    res.barrier_timeout = std::chrono::milliseconds{30'000};
    res.send_retry.max_attempts = retry_attempts;
    res.send_retry.backoff_base = std::chrono::milliseconds{2};
    ChaosRun out;
    Timer timer;
    {
      medici::MediciWorld world(2, medici::TransportMode::kDirectTcp,
                                medici::medici_relay_model(),
                                medici::unshaped_model(), res);
      analysis::Mutex mutex{"chaos_dse_test::mutex"};
      world.run([&](runtime::Communicator& c) {
        DseResult r = driver.run(c, meas_, assignment_, assignment_);
        if (c.rank() == 0) {
          analysis::LockGuard lock(mutex);
          out.rank0 = std::move(r);
        }
      });
      out.retries = world.total_retries();
    }
    out.seconds = timer.seconds();
    out.log = fault::injection_log();
    out.log_json = fault::log_to_json();
    out.injected = fault::injected_count();
    fault::clear();
    return out;
  }

  /// The healthy baseline the degraded runs are compared against.
  DseResult golden(const DseOptions& opts) {
    fault::clear();
    DseDriver driver(generated_.kase.network, d_, opts);
    medici::MediciWorld world(2, medici::TransportMode::kDirectTcp);
    analysis::Mutex mutex{"chaos_dse_test::mutex"};
    DseResult out;
    world.run([&](runtime::Communicator& c) {
      DseResult r = driver.run(c, meas_, assignment_, assignment_);
      if (c.rank() == 0) {
        analysis::LockGuard lock(mutex);
        out = std::move(r);
      }
    });
    return out;
  }

  /// Subsystems hosted on rank 0 that depend on a rank-1 neighbour — the
  /// exact degradation set when every pseudo message out of rank 1 is lost.
  [[nodiscard]] std::vector<int> rank0_subsystems_with_rank1_neighbors()
      const {
    std::vector<int> out;
    for (int t = 0; t < kM; ++t) {
      if (assignment_[static_cast<std::size_t>(t)] != 0) continue;
      for (const int s : d_.neighbors_of(t)) {
        if (assignment_[static_cast<std::size_t>(s)] == 1) {
          out.push_back(t);
          break;
        }
      }
    }
    return out;
  }

  [[nodiscard]] static std::vector<int> degraded_subsystems(
      const DseResult& r) {
    std::vector<int> out;
    for (const DegradedStatus& st : r.degraded) {
      out.push_back(st.subsystem);
    }
    return out;
  }

  /// Max |state - golden| over the buses of non-degraded subsystems.
  [[nodiscard]] double undegraded_error(const DseResult& r,
                                        const DseResult& gold) const {
    std::set<int> degraded;
    for (const DegradedStatus& st : r.degraded) degraded.insert(st.subsystem);
    double err = 0.0;
    for (int s = 0; s < kM; ++s) {
      if (degraded.count(s) > 0) continue;
      for (const grid::BusIndex b :
           d_.subsystems[static_cast<std::size_t>(s)].buses) {
        const auto i = static_cast<std::size_t>(b);
        err = std::max(err, std::abs(r.state.vm[i] - gold.state.vm[i]));
        err = std::max(err, std::abs(r.state.theta[i] - gold.state.theta[i]));
      }
    }
    return err;
  }

  /// Chaos health report (uploaded by the CI chaos-smoke job). Written only
  /// when GRIDSE_CHAOS_REPORT_DIR is set; silently skipped otherwise.
  static void write_health_report(const std::string& name,
                                  const ChaosRun& run) {
    const auto dir = gridse::runtime::env_value("GRIDSE_CHAOS_REPORT_DIR");
    if (!dir) {
      return;
    }
    std::ostringstream json;
    json << "{\"test\":\"" << name << "\",\"injected\":" << run.injected
         << ",\"retries\":" << run.retries << ",\"seconds\":" << run.seconds
         << ",\"all_converged\":" << (run.rank0.all_converged ? "true"
                                                              : "false")
         << ",\"degraded\":[";
    for (std::size_t i = 0; i < run.rank0.degraded.size(); ++i) {
      const DegradedStatus& st = run.rank0.degraded[i];
      if (i > 0) json << ",";
      json << "{\"subsystem\":" << st.subsystem << ",\"missing_neighbors\":[";
      for (std::size_t j = 0; j < st.missing_neighbors.size(); ++j) {
        if (j > 0) json << ",";
        json << st.missing_neighbors[j];
      }
      json << "],\"missing_redistribution\":"
           << (st.missing_redistribution ? "true" : "false") << "}";
    }
    json << "],\"unresponsive_ranks\":[";
    for (std::size_t i = 0; i < run.rank0.unresponsive_ranks.size(); ++i) {
      if (i > 0) json << ",";
      json << run.rank0.unresponsive_ranks[i];
    }
    json << "],\"injections\":" << run.log_json << "}";
    std::ofstream out(*dir + "/" + name + ".json",
                      std::ios::binary | std::ios::trunc);
    if (out) {
      out << json.str() << "\n";
    }
  }

  io::GeneratedCase generated_;
  decomp::Decomposition d_;
  grid::PowerFlowResult pf_;
  grid::MeasurementSet meas_;
  std::vector<graph::PartId> assignment_;
};

TEST_F(ChaosDseTest, DropOnePeerDegradesExactlyTheBoundarySubsystems) {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back({.site = "client.send",
                        .action = fault::ActionKind::kDrop,
                        .source = 1,
                        .tag_min = kPseudoTagLo,
                        .tag_max = kPseudoTagHi});
  const DseOptions opts = chaos_options(std::chrono::milliseconds{2000});

  const ChaosRun a = run_chaos(plan, opts);
  write_health_report("drop_one_peer", a);

  // Bounded completion: the cycle finishes instead of hanging on the lost
  // peer (the ctest timeout is the hard backstop; this is the soft one).
  EXPECT_LT(a.seconds, 120.0);
  EXPECT_GT(a.injected, 0u);

  // Exactly the rank-0 subsystems that needed a rank-1 neighbour degrade.
  EXPECT_EQ(degraded_subsystems(a.rank0),
            rank0_subsystems_with_rank1_neighbors());
  for (const DegradedStatus& st : a.rank0.degraded) {
    EXPECT_FALSE(st.missing_redistribution);
    EXPECT_FALSE(st.missing_neighbors.empty());
    for (const std::int32_t n : st.missing_neighbors) {
      EXPECT_EQ(assignment_[static_cast<std::size_t>(n)], 1);
    }
  }
  EXPECT_TRUE(a.rank0.degraded_mode());
  EXPECT_TRUE(a.rank0.unresponsive_ranks.empty());

  // Undegraded subsystems are untouched by the faults: they match a
  // fault-free run bit-for-bit (same inputs, deterministic solver).
  const DseResult gold = golden(opts);
  EXPECT_LT(undegraded_error(a.rank0, gold), 1e-9);

  // Reproducibility: the same seed produces the identical fault schedule
  // and the identical degradation report.
  const ChaosRun b = run_chaos(plan, opts);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(degraded_subsystems(a.rank0), degraded_subsystems(b.rank0));
}

TEST_F(ChaosDseTest, ThirtyPercentPseudoLossIsDeterministicPerSeed) {
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.rules.push_back({.site = "client.send",
                        .action = fault::ActionKind::kDrop,
                        .probability = 0.3,
                        .tag_min = kPseudoTagLo,
                        .tag_max = kPseudoTagHi});
  const DseOptions opts = chaos_options(std::chrono::milliseconds{2000});

  const ChaosRun a = run_chaos(plan, opts);
  const ChaosRun b = run_chaos(plan, opts);
  write_health_report("pseudo_loss_30pct", a);

  EXPECT_GT(a.injected, 0u);
  EXPECT_EQ(a.log, b.log);  // identical fault schedule per seed
  EXPECT_EQ(degraded_subsystems(a.rank0), degraded_subsystems(b.rank0));
  EXPECT_TRUE(a.rank0.unresponsive_ranks.empty());
  EXPECT_LT(a.seconds, 120.0);

  // Whatever survived undegraded still matches the fault-free baseline.
  const DseResult gold = golden(opts);
  EXPECT_LT(undegraded_error(a.rank0, gold), 1e-9);
}

TEST_F(ChaosDseTest, DelayedFanInCompletesUndegraded) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.rules.push_back({.site = "client.send",
                        .action = fault::ActionKind::kDelay,
                        .tag_min = kPseudoTagLo,
                        .tag_max = kPseudoTagHi,
                        .max_injections = 16,
                        .delay = std::chrono::milliseconds{40}});
  // The deadline comfortably covers the injected delays: slow, not lost.
  const DseOptions opts = chaos_options(std::chrono::milliseconds{20'000});

  const ChaosRun run = run_chaos(plan, opts);
  EXPECT_GT(run.injected, 0u);
  EXPECT_TRUE(run.rank0.degraded.empty());
  EXPECT_TRUE(run.rank0.unresponsive_ranks.empty());
  EXPECT_TRUE(run.rank0.all_converged);

  const DseResult gold = golden(opts);
  EXPECT_LT(undegraded_error(run.rank0, gold), 1e-9);
}

TEST_F(ChaosDseTest, CorruptedFramesNeverDesyncTheExchange) {
  // Bit-flips hit payloads on the wire; a flipped bus index is rejected
  // (the receiver degrades), a flipped double perturbs one pseudo
  // measurement. Either way the run completes and the schedule reproduces
  // per seed.
  fault::FaultPlan plan;
  plan.seed = 23;
  plan.rules.push_back({.site = "wire.write",
                        .action = fault::ActionKind::kBitFlip,
                        .probability = 0.2,
                        .tag_min = kPseudoTagLo,
                        .tag_max = kPseudoTagHi});
  const DseOptions opts = chaos_options(std::chrono::milliseconds{5000});

  const ChaosRun a = run_chaos(plan, opts, /*retry_attempts=*/3);
  const ChaosRun b = run_chaos(plan, opts, /*retry_attempts=*/3);
  write_health_report("corrupt_frames", a);

  EXPECT_GT(a.injected, 0u);
  EXPECT_EQ(a.log, b.log);
  EXPECT_TRUE(a.rank0.unresponsive_ranks.empty());
  EXPECT_LT(a.seconds, 120.0);
  // The state is still a sane voltage profile on every bus.
  for (const double vm : a.rank0.state.vm) {
    EXPECT_GT(vm, 0.5);
    EXPECT_LT(vm, 1.5);
  }
}

TEST_F(ChaosDseTest, MidRunDisconnectIsRetriedTransparently) {
  // Two injected connection errors out of rank 0; the client's bounded
  // retry re-dials and the cycle finishes as if nothing happened.
  fault::FaultPlan plan;
  plan.seed = 31;
  plan.rules.push_back({.site = "wire.write",
                        .action = fault::ActionKind::kError,
                        .source = 0,
                        .max_injections = 2});
  const DseOptions opts = chaos_options(std::chrono::milliseconds{10'000});

  const ChaosRun run = run_chaos(plan, opts, /*retry_attempts=*/4);
  write_health_report("mid_run_disconnect", run);

  EXPECT_EQ(run.injected, 2u);
  EXPECT_EQ(run.retries, 2u);  // exactly one retry per injected error
  EXPECT_TRUE(run.rank0.degraded.empty());
  EXPECT_TRUE(run.rank0.unresponsive_ranks.empty());
  EXPECT_TRUE(run.rank0.all_converged);
}

TEST_F(ChaosDseTest, TruncatedFramePoisonsOnlyOneConnection) {
  // A truncated frame kills the TCP stream mid-message. The reader rejects
  // the partial frame, the sender sees the failure and retries on a fresh
  // connection; nothing is lost and nothing degrades.
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.rules.push_back({.site = "wire.write",
                        .action = fault::ActionKind::kTruncate,
                        .tag_min = kPseudoTagLo,
                        .tag_max = kPseudoTagHi,
                        .max_injections = 1});
  const DseOptions opts = chaos_options(std::chrono::milliseconds{10'000});

  const ChaosRun run = run_chaos(plan, opts, /*retry_attempts=*/4);
  EXPECT_EQ(run.injected, 1u);
  EXPECT_GE(run.retries, 1u);
  EXPECT_TRUE(run.rank0.degraded.empty());
  EXPECT_TRUE(run.rank0.all_converged);
}

/// Seed-looping soak on a small synthetic ring — sized for the TSan preset,
/// where the full IEEE-118 matrix would be too slow to loop.
TEST(ChaosSoakTest, SeedLoopCompletesBoundedOnARing) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
  }
  io::SyntheticSpec spec;
  spec.subsystem_sizes = {6, 6, 6, 6};
  spec.decomposition_edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  spec.seed = 9;
  const io::GeneratedCase generated = io::generate_synthetic(spec);
  decomp::Decomposition d =
      decomp::decompose(generated.kase.network, generated.subsystem_of_bus);
  decomp::analyze_sensitivity(generated.kase.network, d, {});
  const grid::PowerFlowResult pf =
      grid::solve_power_flow(generated.kase.network);
  grid::MeasurementPlan mplan;
  for (const decomp::Subsystem& s : d.subsystems) {
    mplan.pmu_buses.push_back(s.buses.front());
  }
  grid::MeasurementGenerator gen(generated.kase.network, mplan);
  Rng rng(4);
  const grid::MeasurementSet meas = gen.generate(pf.state, rng);
  const std::vector<graph::PartId> assignment{0, 1, 0, 1};
  constexpr int kRingM = 4;
  constexpr int kRingTagHi = 16 + kRingM * kRingM + kRingM;

  DseOptions opts;
  opts.exchange_deadline = std::chrono::milliseconds{1500};
  DseDriver driver(generated.kase.network, d, opts);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.rules.push_back({.site = "client.send",
                          .action = fault::ActionKind::kDrop,
                          .probability = 0.25,
                          .tag_min = 16,
                          .tag_max = kRingTagHi});
    fault::install(plan);
    runtime::ResilienceConfig res;
    res.barrier_timeout = std::chrono::milliseconds{30'000};
    medici::MediciWorld world(2, medici::TransportMode::kDirectTcp,
                              medici::medici_relay_model(),
                              medici::unshaped_model(), res);
    analysis::Mutex mutex{"chaos_dse_test::mutex"};
    std::vector<DseResult> results(2);
    world.run([&](runtime::Communicator& c) {
      DseResult r = driver.run(c, meas, assignment, assignment);
      analysis::LockGuard lock(mutex);
      results[static_cast<std::size_t>(c.rank())] = std::move(r);
    });
    // Both ranks agree on the cluster-wide degradation report.
    EXPECT_EQ(results[0].degraded.size(), results[1].degraded.size())
        << "seed " << seed;
    fault::clear();
  }
}

}  // namespace
}  // namespace gridse::core
