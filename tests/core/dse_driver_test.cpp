#include "core/dse_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "analysis/debug_sync.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "medici/medici_comm.hpp"
#include "obs/metrics.hpp"
#include "runtime/inproc_comm.hpp"
#include "util/rng.hpp"
#include "state_golden.hpp"

namespace gridse::core {
namespace {

/// Counters fixed by the exchange's wire format, as cycle deltas summed over
/// all ranks of the in-process world.
constexpr const char* kWireCounters[] = {
    "dse.pseudo.bytes", "exchange.boundary_bytes", "dse.redistribute.bytes",
    "dse.combine.bytes", "dse.pseudo.messages"};
using WireCounts = std::map<std::string, std::uint64_t>;

/// Pinned outcome of one ieee118 cycle (9 subsystems on 3 ranks): the wire
/// counters plus the state pin of StateGolden.
struct ExchangeGolden {
  WireCounts counters;
  double sum_theta;
  double sum_vm;
  double weighted_theta;
  double weighted_vm;
  std::vector<std::pair<double, double>> samples;
};

void expect_golden(const DseResult& r, const WireCounts& counts,
                   const ExchangeGolden& g) {
  EXPECT_TRUE(r.all_converged);
  if (obs::kEnabled) {
    EXPECT_EQ(counts, g.counters);
  }
  expect_state_golden(r.state, {g.sum_theta, g.sum_vm, g.weighted_theta,
                                g.weighted_vm, g.samples});
}

/// Forwards to `inner`, but appends one record for bus `extra` to every
/// frame sent under `tag`.
class ExtraRecordComm : public runtime::Communicator {
 public:
  ExtraRecordComm(runtime::Communicator& inner, int tag, grid::BusIndex extra)
      : inner_(inner), tag_(tag), extra_(extra) {}

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void send(int dest, int tag, std::vector<std::uint8_t> payload) override {
    if (tag == tag_) {
      std::vector<BusStateRecord> records = decode_boundary_records(payload);
      records.push_back({extra_, 0.0, 1.0});
      payload = encode_boundary_records(records);
    }
    inner_.send(dest, tag, std::move(payload));
  }
  runtime::Message recv(int source, int tag) override {
    return inner_.recv(source, tag);
  }
  std::optional<runtime::Message> recv_for(
      int source, int tag, std::chrono::milliseconds timeout) override {
    return inner_.recv_for(source, tag, timeout);
  }
  void barrier() override { inner_.barrier(); }
  [[nodiscard]] std::size_t bytes_sent() const override {
    return inner_.bytes_sent();
  }

 private:
  runtime::Communicator& inner_;
  int tag_;
  grid::BusIndex extra_;
};

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

  /// One cycle on 3 ranks: rank 0's result and the cycle's wire counters.
  std::pair<DseResult, WireCounts> run_counted(
      const DseOptions& opts, const std::vector<graph::PartId>& step2) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    WireCounts counts;
    for (const char* name : kWireCounters) {
      counts[name] = registry.counter(name).value();
    }
    DseDriver driver(generated_.kase.network, d_, opts);
    runtime::InprocWorld world(3);
    analysis::Mutex mutex{"dse_driver_test::mutex"};
    DseResult out;
    world.run([&](runtime::Communicator& c) {
      DseResult r = driver.run(c, meas_, assignment_, step2);
      analysis::LockGuard lock(mutex);
      if (c.rank() == 0) out = std::move(r);
    });
    for (const char* name : kWireCounters) {
      counts[name] = registry.counter(name).value() - counts[name];
    }
    return {std::move(out), std::move(counts)};
  }

  /// Subsystems 2 (rank 0 -> 1) and 7 (rank 2 -> 0) move between steps.
  [[nodiscard]] std::vector<graph::PartId> remapped() const {
    std::vector<graph::PartId> step2 = assignment_;
    step2[2] = 1;
    step2[7] = 0;
    return step2;
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

TEST_F(DseDriverTest, RemapTracesBothHostsOfAMovedSubsystem) {
  const std::vector<graph::PartId> step2 = remapped();
  const auto results = run_all_ranks(assignment_, step2);
  const auto trace_on = [&](int rank, int s) -> const SubsystemTrace* {
    for (const SubsystemTrace& t :
         results[static_cast<std::size_t>(rank)].traces) {
      if (t.subsystem == s) return &t;
    }
    return nullptr;
  };
  int moved = 0;
  for (int s = 0; s < 9; ++s) {
    const int host1 = assignment_[static_cast<std::size_t>(s)];
    const int host2 = step2[static_cast<std::size_t>(s)];
    const SubsystemTrace* t1 = trace_on(host1, s);
    const SubsystemTrace* t2 = trace_on(host2, s);
    ASSERT_NE(t1, nullptr) << s;
    ASSERT_NE(t2, nullptr) << s;
    EXPECT_GT(t1->step1.gauss_newton_iterations, 0) << s;
    EXPECT_GT(t2->step2.gauss_newton_iterations, 0) << s;
    if (host1 != host2) {
      ++moved;
      EXPECT_EQ(t1->step2.gauss_newton_iterations, 0) << s;
      EXPECT_EQ(t2->step1.gauss_newton_iterations, 0) << s;
    }
  }
  EXPECT_GT(moved, 0);
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
  medici::MediciWorld world(3, medici::TransportMode::kDirectTcp);
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

TEST_F(DseDriverTest, RedistributionShipsStep1StatesAndLocalMeasurements) {
  // Moving subsystem 2 from rank 0 to rank 1 ships one redistribution
  // frame: its Step-1 states over all own buses plus its encoded local
  // measurements, each behind an 8-byte length prefix. The measurements are
  // costed, never consumed, so this pins them against silently shrinking.
  std::vector<graph::PartId> step2 = assignment_;
  step2[2] = 1;
  const auto [result, counts] = run_counted({}, step2);
  EXPECT_TRUE(result.all_converged);
  LocalEstimator moved(generated_.kase.network, d_, 2, {});
  const std::size_t states_bytes =
      8 + moved.local_model().global_bus.size() * sizeof(BusStateRecord);
  const std::size_t meas_bytes =
      8 + encode_measurements(
              moved.local_model().filter(meas_))
              .size();
  EXPECT_EQ(states_bytes + meas_bytes, 3800u);
  if (obs::kEnabled) {
    EXPECT_EQ(counts.at("dse.redistribute.bytes"), states_bytes + meas_bytes);
  }
}

TEST_F(DseDriverTest, NonConvergenceIsReportedNotHidden) {
  // Starve the local solvers of iterations: every rank must see
  // all_converged == false in the combined result (a silent bad estimate is
  // the one unacceptable outcome for a control-room tool). A flat start's
  // first Gauss–Newton step moves the state by far more than its own
  // uncertainty, so one step never meets the stop.
  DseOptions crippled;
  crippled.local.wls.max_iterations = 1;
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
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    registry->invalidate(s);
  }
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

TEST_F(DseDriverTest, PlanReuseConvergesAndTracksTruth) {
  // The per-solve LDLT preconditioner and a persistent plan registry
  // compose: both cycles converge and track the truth, and the second one
  // reuses the first one's symbolic plans and reproduces its estimate.
  const auto registry = std::make_shared<PlanRegistry>();
  DseOptions opts;
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

// Golden cycles: estimates, bytes and message counts of the pseudo
// measurement exchange, with and without a Step-1 != Step-2 remap. Each of
// the 14 cross-rank pseudo frames is 8 + 24 bytes per tie-line end it
// carries: 27 ends in all, under either assignment.
const ExchangeGolden kPlainGolden{
    {{"dse.pseudo.bytes", 760},
     {"exchange.boundary_bytes", 760},
     {"dse.redistribute.bytes", 0},
     {"dse.combine.bytes", 5814},
     {"dse.pseudo.messages", 14}},
    -11.258510242474275,
    120.20935223701068,
    -704.97271718581032,
    7153.6409307908061,
    {{0, 1.0397437530884206},
     {-0.12347376449888585, 1.0260746468016759},
     {-0.13104623204346943, 1.0064548077575122},
     {-0.085771941880204761, 1.0090026564682115},
     {-0.099602873981933876, 1.0081596262334973},
     {-0.11145649751135858, 1.0085362936246611},
     {-0.11407851199851236, 1.0126525656912779},
     {-0.079384154682927033, 1.0411565811532852}}};

TEST_F(DseDriverTest, GoldenPlainExchange) {
  const auto [result, counts] = run_counted({}, assignment_);
  expect_golden(result, counts, kPlainGolden);
}

TEST_F(DseDriverTest, GoldenRemappedExchange) {
  // An adopted Step-1 solution exports exactly what a local run would, so
  // only the traffic differs from the unmapped cycle.
  const auto [plain, plain_counts] = run_counted({}, remapped());
  ExchangeGolden plain_golden = kPlainGolden;
  plain_golden.counters = {{"dse.pseudo.bytes", 760},
                           {"exchange.boundary_bytes", 760},
                           {"dse.redistribute.bytes", 7728},
                           {"dse.combine.bytes", 5814},
                           {"dse.pseudo.messages", 14}};
  expect_golden(plain, plain_counts, plain_golden);
}

TEST_F(DseDriverTest, GoldenHuberExchange) {
  // Robust local solves (Huber IRLS at the default threshold): the wire
  // format is unchanged, only the estimates move.
  DseOptions opts;
  opts.local.robust = true;
  const auto [result, counts] = run_counted(opts, assignment_);
  expect_golden(result, counts,
                {kPlainGolden.counters,
                 -11.258147474876132,
                 120.22169817210431,
                 -704.9528361335133,
                 7154.4921636238687,
                 {{0, 1.0397709676292699},
                  {-0.12345465579693404, 1.0264287702856782},
                  {-0.13102310390264341, 1.0062903963590439},
                  {-0.085839642420810741, 1.0089831868126538},
                  {-0.099603784549586835, 1.0083632067529142},
                  {-0.11144802181747218, 1.0087330710781464},
                  {-0.1140747190846666, 1.0127495890892555},
                  {-0.079389391457469052, 1.0413095628528846}}});
}

TEST_F(DseDriverTest, OneStrayPseudoRecordDegradesTheReceiver) {
  // A pseudo frame from s to t (on another rank) that carries one record
  // besides their tie-line ends: a bus of s that t does not model, or one
  // of t's own buses. Either is counted as a corrupt frame, t lists s as
  // missing and solves Step 2 on priors, and the cycle finishes.
  const int s = 0;
  int t = -1;
  for (const decomp::TieEnds& tie : d_.subsystems[0].ties) {
    if (assignment_[static_cast<std::size_t>(tie.neighbor)] !=
        assignment_[0]) {
      t = tie.neighbor;
      break;
    }
  }
  ASSERT_GE(t, 0);
  const std::vector<grid::BusIndex>& tie_ends =
      d_.subsystems[0].ties_to(t).own;
  grid::BusIndex unmodelled = -1;
  for (const grid::BusIndex b : d_.subsystems[0].buses) {
    if (!std::binary_search(tie_ends.begin(), tie_ends.end(), b)) {
      unmodelled = b;
      break;
    }
  }
  ASSERT_GE(unmodelled, 0);
  const grid::BusIndex receivers_own =
      d_.subsystems[static_cast<std::size_t>(t)].buses.front();
  // The driver's tag layout: pseudo frames use 16 + from * m + to.
  const int tag = 16 + s * d_.num_subsystems() + t;

  DseDriver driver(generated_.kase.network, d_, {});
  for (const grid::BusIndex extra : {unmodelled, receivers_own}) {
    obs::Counter& corrupt =
        obs::MetricsRegistry::global().counter("exchange.corrupt_frames");
    const std::uint64_t corrupt_before = corrupt.value();
    std::vector<DseResult> results(3);
    analysis::Mutex mutex{"dse_driver_test::mutex"};
    runtime::InprocWorld world(3);
    world.run([&](runtime::Communicator& c) {
      ExtraRecordComm tampering(c, tag, extra);
      DseResult r = driver.run(tampering, meas_, assignment_, assignment_);
      analysis::LockGuard lock(mutex);
      results[static_cast<std::size_t>(c.rank())] = std::move(r);
    });
    if (obs::kEnabled) {
      EXPECT_EQ(corrupt.value() - corrupt_before, 1u) << "bus " << extra;
    }
    for (const DseResult& r : results) {
      ASSERT_EQ(r.degraded.size(), 1u) << "bus " << extra;
      EXPECT_EQ(r.degraded[0].subsystem, t);
      EXPECT_EQ(r.degraded[0].missing_neighbors,
                std::vector<std::int32_t>{s});
      EXPECT_FALSE(r.degraded[0].missing_redistribution);
      EXPECT_TRUE(r.unresponsive_ranks.empty());
      EXPECT_LT(grid::max_vm_error(r.state, pf_.state), 0.02);
    }
  }
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
