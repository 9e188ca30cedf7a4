// Tracking frames: Step 1 starts from the previous frame's estimate, and the
// subsystem models DseDriver solves on persist across frames in the
// PlanRegistry until a switch of one of their branches re-extracts them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <set>
#include <utility>
#include <vector>

#include "analysis/debug_sync.hpp"
#include "analysis/tsan.hpp"
#include "core/architecture.hpp"
#include "core/dse_driver.hpp"
#include "decomp/bus_partition.hpp"
#include "decomp/sensitivity.hpp"
#include "fault/fault.hpp"
#include "fault/topology_replay.hpp"
#include "grid/dc_powerflow.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "grid/topology.hpp"
#include "io/synthetic.hpp"
#include "obs/metrics.hpp"
#include "runtime/inproc_comm.hpp"
#include "util/rng.hpp"

namespace gridse::core {
namespace {

double diurnal_load(double time_sec) {
  return 1.0 + 0.10 * std::sin(2.0 * std::numbers::pi * time_sec / 86400.0);
}

/// Seconds between the frames of the driver-level runs: ten minutes move
/// the diurnal load by up to 0.4%.
constexpr double kFrameStepSec = 600.0;

// --- DseDriver with and without a prior ------------------------------------

/// One split of one case, and the frames' true states under a load profile.
struct TrackingCase {
  io::GeneratedCase generated;
  decomp::Decomposition d;
  std::vector<graph::PartId> assignment;
  int ranks = 1;
  bool ac_truth = true;

  [[nodiscard]] grid::GridState truth(double time_sec) const {
    grid::Network scaled = generated.kase.network;
    scaled.scale_loads(diurnal_load(time_sec));
    if (ac_truth) {
      const grid::PowerFlowResult pf = grid::solve_power_flow(scaled);
      EXPECT_TRUE(pf.converged);
      return pf.state;
    }
    // DC angles with set-point magnitudes: what keeps a 10k truth cheap.
    grid::GridState state(scaled.num_buses());
    state.theta = grid::solve_dc_power_flow(scaled);
    for (grid::BusIndex b = 0; b < scaled.num_buses(); ++b) {
      state.vm[static_cast<std::size_t>(b)] =
          scaled.bus(b).type == grid::BusType::kPQ ? 1.0
                                                   : scaled.bus(b).v_setpoint;
    }
    return state;
  }
};

TrackingCase ieee118_case() {
  TrackingCase c;
  c.generated = io::ieee118_dse();
  c.d = decomp::decompose(c.generated.kase.network,
                          c.generated.subsystem_of_bus);
  c.assignment = {0, 0, 0, 1, 1, 1, 2, 2, 2};
  c.ranks = 3;
  return c;
}

/// The 10k tier as the frame benchmark splits it: 32 convergence-aware
/// subsystems at partition seed 7, dealt onto 4 ranks.
TrackingCase tier10k_case() {
  TrackingCase c;
  c.generated = io::interconnection10k();
  graph::PartitionOptions popts;
  popts.k = 32;
  popts.seed = 7;
  popts.objective = graph::PartitionObjective::kConvergenceAware;
  c.generated.subsystem_of_bus =
      decomp::partition_buses(c.generated.kase.network, popts);
  c.d = decomp::decompose(c.generated.kase.network,
                          c.generated.subsystem_of_bus);
  c.ranks = 4;
  for (int s = 0; s < c.d.num_subsystems(); ++s) {
    c.assignment.push_back(static_cast<graph::PartId>(s % c.ranks));
  }
  c.ac_truth = false;
  return c;
}

/// One frame on every rank: rank 0's combined state and the Step-1
/// traces of all ranks.
struct Frame {
  grid::GridState state;
  bool converged = false;
  int step1_gn = 0;
  int warm_starts = 0;
  int subsystems = 0;
};

Frame run_frame(const DseDriver& driver, const TrackingCase& c,
                const grid::MeasurementSet& meas,
                const TrackingPrior* prior) {
  Frame out;
  analysis::Mutex mutex{"tracking_test::mutex"};
  runtime::InprocWorld world(c.ranks);
  world.run([&](runtime::Communicator& comm) {
    DseResult r =
        driver.run(comm, meas, c.assignment, c.assignment, nullptr, prior);
    analysis::LockGuard lock(mutex);
    for (const SubsystemTrace& t : r.traces) {
      out.step1_gn += t.step1.gauss_newton_iterations;
      out.warm_starts += t.step1.warm_start ? 1 : 0;
      ++out.subsystems;
    }
    if (comm.rank() == 0) {
      out.converged = r.all_converged;
      out.state = std::move(r.state);
    }
  });
  return out;
}

/// How far apart two Gauss–Newton stops on the same meters may leave a
/// state. Each stop lands within (x̂ − x*)ᵀ G (x̂ − x*) ≤ 1e-5 of the tight
/// solve x* (Wls.StopLandsNearTheTightSolve), so within √1e-5 standard
/// deviations of the estimate in every state. No state's σ exceeds 0.01, the
/// loosest meter's and the Step-2 pseudo meters' σ.
const double kStopAgreement = 2.0 * std::sqrt(1e-5) * 0.01;

/// Five frames under a load profile, flat-started and tracked side by side
/// on the same measurements: the estimates agree within kStopAgreement, and
/// every tracked frame after the first spends strictly fewer Step-1
/// Gauss-Newton iterations.
void expect_tracking_matches_flat_start(TrackingCase c) {
  decomp::analyze_sensitivity(c.generated.kase.network, c.d, {});
  grid::MeasurementPlan plan;
  for (const decomp::Subsystem& s : c.d.subsystems) {
    plan.pmu_buses.push_back(*std::min_element(s.buses.begin(),
                                               s.buses.end()));
  }
  const grid::MeasurementGenerator gen(c.generated.kase.network, plan);
  DseOptions flat_opts;
  flat_opts.plan_registry = std::make_shared<PlanRegistry>();
  DseOptions tracked_opts;
  tracked_opts.plan_registry = std::make_shared<PlanRegistry>();
  const DseDriver flat_driver(c.generated.kase.network, c.d, flat_opts);
  const DseDriver tracked_driver(c.generated.kase.network, c.d, tracked_opts);

  obs::Counter& tracking_starts =
      obs::MetricsRegistry::global().counter("dse.step1.tracking_starts");
  Rng rng(91);
  grid::GridState previous;
  for (int f = 0; f < 5; ++f) {
    const double t = f * kFrameStepSec;
    const grid::MeasurementSet meas = gen.generate(c.truth(t), rng, t);
    const std::uint64_t starts_before = tracking_starts.value();
    const Frame flat = run_frame(flat_driver, c, meas, nullptr);
    const TrackingPrior prior{previous, {}};
    const Frame tracked =
        run_frame(tracked_driver, c, meas, f > 0 ? &prior : nullptr);
    ASSERT_TRUE(flat.converged) << f;
    ASSERT_TRUE(tracked.converged) << f;
    ASSERT_EQ(tracked.subsystems, c.d.num_subsystems());

    double max_diff = 0.0;
    for (std::size_t b = 0; b < flat.state.theta.size(); ++b) {
      max_diff = std::max({max_diff,
                           std::abs(flat.state.theta[b] -
                                    tracked.state.theta[b]),
                           std::abs(flat.state.vm[b] - tracked.state.vm[b])});
    }
    EXPECT_LE(max_diff, kStopAgreement) << "frame " << f;
    EXPECT_EQ(flat.warm_starts, 0) << f;
    if (f == 0) {
      EXPECT_EQ(tracked.warm_starts, 0);
      EXPECT_EQ(tracked.step1_gn, flat.step1_gn);
    } else {
      EXPECT_EQ(tracked.warm_starts, c.d.num_subsystems()) << f;
      EXPECT_LT(tracked.step1_gn, flat.step1_gn) << "frame " << f;
    }
    if (obs::kEnabled) {
      EXPECT_EQ(tracking_starts.value() - starts_before,
                static_cast<std::uint64_t>(tracked.warm_starts))
          << f;
    }
    previous = tracked.state;
  }
}

TEST(TrackingPrior, MatchesFlatStartWithFewerIterationsOnIeee118) {
  expect_tracking_matches_flat_start(ieee118_case());
}

TEST(TrackingPrior, MatchesFlatStartWithFewerIterationsOnTenThousandBusSplit) {
  if (GRIDSE_TSAN_ENABLED) {
    GTEST_SKIP() << "ten 10k-bus frames under TSan take minutes and add no "
                    "concurrency the ieee118 case lacks";
  }
  expect_tracking_matches_flat_start(tier10k_case());
}

// --- DseSystem: where the prior is not used ---------------------------------

SystemConfig one_cluster_config() {
  SystemConfig cfg;
  cfg.mapping.num_clusters = 1;  // rank 0 hosts, and traces, every subsystem
  return cfg;
}

std::map<int, bool> warm_starts(const CycleReport& rep) {
  std::map<int, bool> out;
  for (const SubsystemTrace& t : rep.dse.traces) {
    out[t.subsystem] = t.step1.warm_start;
  }
  return out;
}

TEST(TrackingPrior, FirstCycleStartsFlatAndTheNextTracks) {
  DseSystem sys(io::ieee118_dse(), one_cluster_config());
  const CycleReport first = sys.run_cycle(0.0);
  ASSERT_TRUE(first.dse.all_converged);
  ASSERT_EQ(first.dse.traces.size(), 9u);
  for (const auto& [s, warm] : warm_starts(first)) {
    EXPECT_FALSE(warm) << s;
  }
  const CycleReport second = sys.run_cycle(60.0);
  ASSERT_TRUE(second.dse.all_converged);
  for (const auto& [s, warm] : warm_starts(second)) {
    EXPECT_TRUE(warm) << s;
  }
}

// A subsystem the frame's switching touched starts Step 1 flat: from neither
// the prior nor, with recovery on, its checkpoint, since either may hold a
// just-restored bus at |V| ≈ 0. Every other subsystem warm-starts.
TEST(TrackingPrior, TouchedSubsystemsStartFlat) {
  const io::GeneratedCase gc = io::ieee118_dse();
  for (const bool recovery : {false, true}) {
    SCOPED_TRACE(recovery ? "recovery on" : "recovery off");
    SystemConfig cfg = one_cluster_config();
    cfg.truth_mode = TruthMode::kDcLinearized;
    cfg.topology.plan =
        fault::TopologyReplayPlan::generate(gc.kase.network, 5).to_json();
    cfg.resilience.recovery.enabled = recovery;
    DseSystem sys(io::ieee118_dse(), cfg);
    const grid::Network& net = sys.network();
    std::vector<char> energized(static_cast<std::size_t>(net.num_buses()), 1);
    int touched_cycles = 0;
    for (int c = 0; c < 8; ++c) {
      const CycleReport rep = sys.run_cycle(c * 60.0);
      ASSERT_TRUE(rep.dse.all_converged) << c;
      // The touched set: owners of a switched branch's endpoints and of a
      // bus whose energization flipped.
      std::set<int> touched;
      for (const std::size_t bi : rep.topology.changed_branches) {
        touched.insert(gc.subsystem_of_bus[static_cast<std::size_t>(
            net.branch(bi).from)]);
        touched.insert(
            gc.subsystem_of_bus[static_cast<std::size_t>(net.branch(bi).to)]);
      }
      const grid::IslandReport islands = sys.live_topology()->islands();
      for (grid::BusIndex b = 0; b < net.num_buses(); ++b) {
        const char live = islands.bus_energized(b) ? 1 : 0;
        if (live != energized[static_cast<std::size_t>(b)]) {
          touched.insert(gc.subsystem_of_bus[static_cast<std::size_t>(b)]);
          energized[static_cast<std::size_t>(b)] = live;
        }
      }
      if (c > 0 && !touched.empty()) {
        ++touched_cycles;
        EXPECT_LT(touched.size(), 9u) << c;
      }
      for (const auto& [s, warm] : warm_starts(rep)) {
        EXPECT_EQ(warm, c > 0 && touched.count(s) == 0)
            << "cycle " << c << " subsystem " << s;
      }
    }
    EXPECT_GE(touched_cycles, 3);
  }
}

TEST(TrackingPrior, CycleAfterADegradedOneStartsFlat) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
  }
  SystemConfig cfg;
  cfg.mapping.num_clusters = 2;
  cfg.dse.exchange_deadline = std::chrono::milliseconds{100};
  DseSystem sys(io::ieee118_dse(), cfg);
  // The report carries every rank's traces, one per subsystem.
  const auto all = [](const CycleReport& rep, bool warm) {
    ASSERT_EQ(rep.dse.traces.size(), 9u);
    for (const SubsystemTrace& t : rep.dse.traces) {
      EXPECT_EQ(t.step1.warm_start, warm) << t.subsystem;
    }
  };
  all(sys.run_cycle(0.0), false);

  // Lose every Step-2 pseudo-measurement frame rank 1 sends (the pseudo
  // tags span [16, 2^18)): rank 0's subsystems bordering rank 1 finish
  // degraded.
  fault::FaultPlan plan;
  plan.seed = 3;
  fault::FaultRule rule;
  rule.site = "mailbox.deliver";
  rule.source = 1;
  rule.tag_min = 16;
  rule.tag_max = (1 << 18) - 1;
  plan.rules.push_back(rule);
  fault::install(plan);
  const CycleReport degraded = sys.run_cycle(60.0);
  fault::clear();
  EXPECT_TRUE(degraded.dse.degraded_mode());
  all(degraded, true);

  const CycleReport after = sys.run_cycle(120.0);
  EXPECT_FALSE(after.dse.degraded_mode());
  all(after, false);
  all(sys.run_cycle(180.0), true);
}

// A cycle whose combine lost a rank's frame holds the flat default (θ = 0,
// |V| = 1) at that rank's buses; the next cycle's topology anchors must read
// the last complete estimate instead.
TEST(TrackingPrior, LostCombineFrameKeepsTheLastCompleteEstimate) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
  }
  SystemConfig cfg;
  cfg.mapping.num_clusters = 2;
  cfg.truth_mode = TruthMode::kDcLinearized;
  cfg.dse.exchange_deadline = std::chrono::milliseconds{100};
  DseSystem sys(io::ieee118_dse(), cfg);
  const CycleReport complete = sys.run_cycle(0.0);
  ASSERT_TRUE(complete.dse.all_converged);

  // Lose rank 1's combine frame (the combine tag is 2^18 + 2^17).
  fault::FaultPlan plan;
  plan.seed = 5;
  fault::FaultRule rule;
  rule.site = "mailbox.deliver";
  rule.source = 1;
  rule.tag_min = (1 << 18) + (1 << 17);
  rule.tag_max = rule.tag_min;
  plan.rules.push_back(rule);
  fault::install(plan);
  const CycleReport lossy = sys.run_cycle(60.0);
  fault::clear();
  ASSERT_EQ(lossy.dse.unresponsive_ranks, std::vector<int>{1});

  // A breaker inside one of rank 1's subsystems whose opening leaves a
  // live, unmetered piece of it: that piece gets a θ anchor at the prior
  // estimate's angle (found with a sentinel prior).
  const grid::Network& net = sys.network();
  const std::vector<int>& owner = io::ieee118_dse().subsystem_of_bus;
  const auto rank1 = [&](grid::BusIndex b) {
    return lossy.map_step2.partition.assignment[static_cast<std::size_t>(
               owner[static_cast<std::size_t>(b)])] == 1;
  };
  constexpr double kSentinel = 7.0;
  grid::GridState sentinel(net.num_buses());
  std::fill(sentinel.theta.begin(), sentinel.theta.end(), kSentinel);
  std::size_t breaker = net.num_branches();
  grid::BusIndex anchor_bus = -1;
  for (std::size_t bi = 0; bi < net.num_branches() && anchor_bus < 0; ++bi) {
    const grid::Branch& br = net.branch(bi);
    if (owner[static_cast<std::size_t>(br.from)] !=
            owner[static_cast<std::size_t>(br.to)] ||
        !rank1(br.from)) {
      continue;
    }
    grid::Network probe = net;
    grid::LiveTopology live(probe);
    live.apply({grid::TopologyEventKind::kBreakerOpen,
                static_cast<std::int32_t>(bi), -1});
    const grid::IslandReport islands = live.islands();
    grid::MeasurementSet set =
        grid::mask_measurements(probe, islands, sys.last_measurements())
            .active;
    const std::size_t before = set.items.size();
    (void)grid::append_anchor_measurements(probe, islands, owner, sentinel,
                                           set);
    for (std::size_t i = before; i < set.items.size(); ++i) {
      const grid::Measurement& m = set.items[i];
      if (m.type == grid::MeasType::kVAngle && m.value == kSentinel &&
          rank1(m.bus)) {
        breaker = bi;
        anchor_bus = m.bus;
        break;
      }
    }
  }
  ASSERT_GE(anchor_bus, 0) << "no breaker leaves an unmetered live piece";
  const double lost = lossy.dse.state.theta[static_cast<std::size_t>(
      anchor_bus)];
  const double kept = complete.dse.state.theta[static_cast<std::size_t>(
      anchor_bus)];
  ASSERT_EQ(lost, 0.0);  // the lost frame's flat default
  ASSERT_NE(kept, 0.0);

  sys.apply_topology_event({grid::TopologyEventKind::kBreakerOpen,
                            static_cast<std::int32_t>(breaker), -1});
  const CycleReport after = sys.run_cycle(120.0);
  EXPECT_GT(after.topology.anchors_added, 0u);
  int anchors = 0;
  for (const grid::Measurement& m : sys.last_measurements().items) {
    if (m.type == grid::MeasType::kVAngle && m.bus == anchor_bus &&
        m.sigma == grid::kAnchorSigma) {
      EXPECT_DOUBLE_EQ(m.value, kept);
      ++anchors;
    }
  }
  EXPECT_EQ(anchors, 1);
}

// --- Models kept across frames ----------------------------------------------

void expect_same_branch_status(const decomp::SubsystemModel& kept,
                               const decomp::SubsystemModel& fresh,
                               int cycle) {
  ASSERT_EQ(kept.global_branch, fresh.global_branch);
  for (std::size_t l = 0; l < kept.network.num_branches(); ++l) {
    EXPECT_EQ(kept.network.branch_in_service(l),
              fresh.network.branch_in_service(l))
        << "cycle " << cycle << " subsystem " << kept.subsystem_id
        << " branch " << kept.global_branch[l];
  }
  // The kept Ybus is exactly a fresh extraction's, bit for bit.
  EXPECT_TRUE(std::ranges::equal(kept.ybus.row_ptr(), fresh.ybus.row_ptr()) &&
              std::ranges::equal(kept.ybus.col_idx(), fresh.ybus.col_idx()) &&
              std::ranges::equal(kept.ybus.values(), fresh.ybus.values()))
      << "cycle " << cycle << " subsystem " << kept.subsystem_id;
}

bool holds_any(const decomp::SubsystemModel& model,
               const std::vector<std::size_t>& branches) {
  return std::any_of(branches.begin(), branches.end(), [&](std::size_t bi) {
    return model.local_branch_of_global.contains(
        static_cast<std::int32_t>(bi));
  });
}

// After every event of a replay plan, each kept model carries the branch
// statuses of a fresh extraction, and the frame's estimate is bitwise the
// one a system re-extracting every model each frame computes. No model
// survives a frame that switched one of its branches.
TEST(KeptModels, FollowEveryReplayEventBitwise) {
  const io::GeneratedCase gc = io::ieee118_dse();
  SystemConfig cfg;
  cfg.mapping.num_clusters = 3;
  cfg.truth_mode = TruthMode::kDcLinearized;
  cfg.topology.plan =
      fault::TopologyReplayPlan::generate(gc.kase.network, 5).to_json();
  cfg.load_profile = diurnal_load;
  SystemConfig fresh_cfg = cfg;
  const auto kept = std::make_shared<PlanRegistry>();
  const auto fresh = std::make_shared<PlanRegistry>();
  cfg.dse.plan_registry = kept;
  fresh_cfg.dse.plan_registry = fresh;
  DseSystem sys(io::ieee118_dse(), cfg);
  DseSystem reference(io::ieee118_dse(), fresh_cfg);
  const int m = sys.decomposition().num_subsystems();

  std::map<int, decomp::SubsystemModels> previous;
  int outlived_switch = 0;
  const std::int64_t cycles = fault::TopologyReplayPlan::generate(
                                  gc.kase.network, 5)
                                  .last_cycle() +
                              2;
  for (int c = 0; c < cycles; ++c) {
    for (int s = 0; s < m; ++s) {
      fresh->invalidate(s);  // the reference re-extracts every frame
    }
    const CycleReport rep = sys.run_cycle(c * 60.0);
    const CycleReport ref = reference.run_cycle(c * 60.0);
    ASSERT_TRUE(rep.dse.all_converged) << c;
    ASSERT_TRUE(ref.dse.all_converged) << c;
    EXPECT_EQ(rep.topology.changed_branches, ref.topology.changed_branches);
    EXPECT_EQ(rep.dse.state.theta, ref.dse.state.theta) << "cycle " << c;
    EXPECT_EQ(rep.dse.state.vm, ref.dse.state.vm) << "cycle " << c;
    ASSERT_EQ(rep.dse.traces.size(), ref.dse.traces.size());
    for (std::size_t i = 0; i < rep.dse.traces.size(); ++i) {
      EXPECT_EQ(rep.dse.traces[i].step1.gauss_newton_iterations,
                ref.dse.traces[i].step1.gauss_newton_iterations);
      EXPECT_EQ(rep.dse.traces[i].step2.gauss_newton_iterations,
                ref.dse.traces[i].step2.gauss_newton_iterations);
    }

    EXPECT_EQ(kept->stats().models, static_cast<std::uint64_t>(m));
    for (int s = 0; s < m; ++s) {
      const decomp::SubsystemModels models =
          kept->models_for(s, sys.network(), sys.decomposition());
      expect_same_branch_status(
          *models.local,
          decomp::extract_local(sys.network(), sys.decomposition(), s), c);
      expect_same_branch_status(
          *models.extended,
          decomp::extract_extended(sys.network(), sys.decomposition(), s),
          c);
      // A model kept from the last frame never holds a switched branch:
      // the switch invalidated its owner (the local model's branches are
      // a subset of the extended model's).
      const auto it = previous.find(s);
      if (it != previous.end() &&
          it->second.extended == models.extended &&
          holds_any(*models.extended, rep.topology.changed_branches)) {
        ++outlived_switch;
      }
      previous[s] = models;
    }
  }
  EXPECT_EQ(outlived_switch, 0);
}

}  // namespace
}  // namespace gridse::core
