// Seeded topology-change replay end to end: plan parsing/roundtrip, the
// scenario generator, the full outage → islanding → restore arc through
// DseSystem on IEEE-118 and the 10k tier, the bit-identical applied-event
// log across runs and thread counts, and the FAULT_DROP("topology.apply")
// chaos hook. Mirrors the determinism-witness idiom of fault_plan_test.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/tsan.hpp"
#include "core/architecture.hpp"
#include "decomp/bus_partition.hpp"
#include "fault/fault.hpp"
#include "fault/topology_replay.hpp"
#include "grid/state.hpp"
#include "io/synthetic.hpp"
#include "runtime/resilience.hpp"
#include "util/error.hpp"

namespace gridse::fault {
namespace {

TEST(TopologyReplayPlanTest, ParseRoundtripAndOrdering) {
  const std::string json =
      "{\"seed\":7,\"events\":["
      "{\"cycle\":3,\"kind\":\"bus_split\",\"bus\":5},"
      "{\"cycle\":1,\"kind\":\"line_outage\",\"branch\":17},"
      "{\"cycle\":3,\"kind\":\"line_restore\",\"branch\":17}]}";
  const TopologyReplayPlan plan = TopologyReplayPlan::parse(json);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.events.size(), 3u);
  // Stable sort by cycle: the outage first, then the two cycle-3 events in
  // file order.
  EXPECT_EQ(plan.events[0].cycle, 1);
  EXPECT_EQ(plan.events[0].event.kind, grid::TopologyEventKind::kLineOutage);
  EXPECT_EQ(plan.events[0].event.branch, 17);
  EXPECT_EQ(plan.events[1].event.kind, grid::TopologyEventKind::kBusSplit);
  EXPECT_EQ(plan.events[1].event.bus, 5);
  EXPECT_EQ(plan.events[2].event.kind, grid::TopologyEventKind::kLineRestore);
  EXPECT_EQ(plan.last_cycle(), 3);

  // to_json → parse is the identity on (seed, events).
  const TopologyReplayPlan again = TopologyReplayPlan::parse(plan.to_json());
  EXPECT_EQ(again.seed, plan.seed);
  EXPECT_EQ(again.events, plan.events);
}

TEST(TopologyReplayPlanTest, MalformedPlansAreRejected) {
  EXPECT_THROW(TopologyReplayPlan::parse("[]"), InvalidInput);
  EXPECT_THROW(TopologyReplayPlan::parse("{\"seed\":1}"), InvalidInput);
  EXPECT_THROW(TopologyReplayPlan::parse(
                   "{\"events\":[{\"cycle\":1,\"kind\":\"nope\"}]}"),
               InvalidInput);
  // Branch events need a branch, bus events a bus.
  EXPECT_THROW(TopologyReplayPlan::parse(
                   "{\"events\":[{\"cycle\":1,\"kind\":\"line_outage\"}]}"),
               InvalidInput);
  EXPECT_THROW(TopologyReplayPlan::parse(
                   "{\"events\":[{\"cycle\":1,\"kind\":\"bus_split\"}]}"),
               InvalidInput);
  // Integer fields are never truncated, wrapped or clamped.
  for (const char* bad :
       {R"({"events":[{"cycle":2.7,"kind":"line_outage","branch":3}]})",
        R"({"events":[{"cycle":1e300,"kind":"line_outage","branch":3}]})",
        R"({"events":[{"cycle":1,"kind":"line_outage","branch":3.5}]})",
        R"({"events":[{"cycle":1,"kind":"line_outage","branch":4294967296}]})",
        R"({"events":[{"cycle":1,"kind":"bus_split","bus":1e2}]})",
        R"({"seed":-5,"events":[]})", R"({"seed":1.5,"events":[]})",
        R"({"seed":18446744073709551616,"events":[]})"}) {
    EXPECT_THROW(TopologyReplayPlan::parse(bad), InvalidInput) << bad;
  }
}

TEST(TopologyReplayPlanTest, GeneratorIsSeedDeterministicAndArcShaped) {
  const io::GeneratedCase gc = io::ieee118_dse();
  const TopologyReplayPlan a =
      TopologyReplayPlan::generate(gc.kase.network, 11);
  const TopologyReplayPlan b =
      TopologyReplayPlan::generate(gc.kase.network, 11);
  EXPECT_EQ(a.events, b.events);
  const TopologyReplayPlan c =
      TopologyReplayPlan::generate(gc.kase.network, 12);
  EXPECT_NE(a.events, c.events);

  // Arc shape: outages, one split, then merge + restores back to base.
  int outages = 0;
  int restores = 0;
  int splits = 0;
  int merges = 0;
  for (const ScheduledTopologyEvent& e : a.events) {
    switch (e.event.kind) {
      case grid::TopologyEventKind::kLineOutage: ++outages; break;
      case grid::TopologyEventKind::kLineRestore: ++restores; break;
      case grid::TopologyEventKind::kBusSplit: ++splits; break;
      case grid::TopologyEventKind::kBusMerge: ++merges; break;
      default: break;
    }
  }
  EXPECT_EQ(outages, 2);
  EXPECT_EQ(restores, 2);
  EXPECT_EQ(splits, 1);
  EXPECT_EQ(merges, 1);
}

core::SystemConfig replay_config(std::string plan_json) {
  core::SystemConfig cfg;
  cfg.truth_mode = core::TruthMode::kDcLinearized;
  cfg.mapping.num_clusters = 3;
  cfg.topology.plan = std::move(plan_json);
  cfg.topology.repartition_threshold = 0.0;  // replay only, no repartition
  return cfg;
}

struct ReplayRun {
  std::vector<core::CycleReport> reports;
  std::string log_json;
};

/// Publish one applied-event log under $GRIDSE_CHAOS_REPORT_DIR/replay/ —
/// CI uploads the directory as the replay-report artifact so the
/// determinism witness of each run is diffable across commits.
void write_replay_report(const std::string& name, const std::string& log) {
  const auto dir = gridse::runtime::env_value("GRIDSE_CHAOS_REPORT_DIR");
  if (!dir) {
    return;
  }
  const std::filesystem::path out_dir = std::filesystem::path(*dir) / "replay";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return;
  }
  std::ofstream out(out_dir / (name + ".json"),
                    std::ios::binary | std::ios::trunc);
  if (out) {
    out << log << "\n";
  }
}

ReplayRun run_replay(core::DseSystem& sys, std::int64_t cycles) {
  ReplayRun out;
  for (std::int64_t c = 0; c < cycles; ++c) {
    out.reports.push_back(sys.run_cycle(static_cast<double>(c) * 60.0));
  }
  out.log_json = sys.replay_log_json();
  return out;
}

TEST(TopologyReplayDseTest, Ieee118OutageIslandRestoreArcConvergesEveryCycle) {
  const io::GeneratedCase gc = io::ieee118_dse();
  const TopologyReplayPlan plan =
      TopologyReplayPlan::generate(gc.kase.network, 5);
  core::DseSystem sys(io::ieee118_dse(), replay_config(plan.to_json()));
  ASSERT_TRUE(sys.topology_active());
  ASSERT_NE(sys.replay(), nullptr);

  const std::int64_t cycles = plan.last_cycle() + 2;
  const ReplayRun run = run_replay(sys, cycles);
  ASSERT_TRUE(sys.replay()->finished());
  EXPECT_EQ(sys.replay()->events_applied(), plan.events.size());

  bool saw_islanding = false;
  for (std::size_t c = 0; c < run.reports.size(); ++c) {
    const core::CycleReport& rep = run.reports[c];
    // Graceful degradation: every cycle of the arc completes and converges,
    // including the fully degraded hold.
    EXPECT_TRUE(rep.dse.all_converged) << "cycle " << c;
    EXPECT_LT(rep.max_vm_error, 0.05) << "cycle " << c;
    saw_islanding = saw_islanding || rep.topology.num_islands > 1;
  }
  // The generated arc splits a PQ bus: islanding must actually happen, and
  // with it masking and dead-bus pinning.
  EXPECT_TRUE(saw_islanding);
  std::size_t total_masked = 0;
  std::size_t total_anchors = 0;
  for (const core::CycleReport& rep : run.reports) {
    total_masked += rep.topology.masked_measurements;
    total_anchors += rep.topology.anchors_added;
  }
  EXPECT_GT(total_masked, 0u);
  EXPECT_GT(total_anchors, 0u);

  // After the final restore the grid is back to base topology.
  EXPECT_EQ(sys.live_topology()->num_out_of_service(), 0u);
  EXPECT_EQ(run.reports.back().topology.num_islands, 1);
}

TEST(TopologyReplayDseTest, AppliedEventLogBitIdenticalAcrossRunsAndThreads) {
  const io::GeneratedCase gc = io::ieee118_dse();
  const TopologyReplayPlan plan =
      TopologyReplayPlan::generate(gc.kase.network, 9);
  const std::int64_t cycles = plan.last_cycle() + 1;

  core::SystemConfig cfg1 = replay_config(plan.to_json());
  cfg1.dse.workers_per_cluster = 1;
  core::DseSystem sys1(io::ieee118_dse(), cfg1);
  const ReplayRun a = run_replay(sys1, cycles);

  core::SystemConfig cfg2 = replay_config(plan.to_json());
  cfg2.dse.workers_per_cluster = 1;
  core::DseSystem sys2(io::ieee118_dse(), cfg2);
  const ReplayRun b = run_replay(sys2, cycles);

  core::SystemConfig cfg3 = replay_config(plan.to_json());
  cfg3.dse.workers_per_cluster = 4;
  core::DseSystem sys3(io::ieee118_dse(), cfg3);
  const ReplayRun c = run_replay(sys3, cycles);

  // The determinism witness: same seed → byte-identical applied-event logs
  // across repeated runs AND across worker thread counts.
  EXPECT_EQ(a.log_json, b.log_json);
  EXPECT_EQ(a.log_json, c.log_json);
  write_replay_report("ieee118-seed9", a.log_json);
  // And the estimates agree exactly between the repeated single-thread runs.
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_DOUBLE_EQ(grid::max_vm_error(a.reports[i].dse.state,
                                        b.reports[i].dse.state),
                     0.0);
  }
}

TEST(TopologyReplayDseTest, ReplayRequiresDcTruth) {
  const io::GeneratedCase gc = io::ieee118_dse();
  const TopologyReplayPlan plan =
      TopologyReplayPlan::generate(gc.kase.network, 5);
  core::SystemConfig cfg = replay_config(plan.to_json());
  cfg.truth_mode = core::TruthMode::kAcPowerFlow;
  EXPECT_THROW(core::DseSystem(io::ieee118_dse(), cfg), InvalidInput);
}

TEST(TopologyReplayDseTest, DroppedEventIsLoggedNotApplied) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
  }
  fault::clear();
  const io::GeneratedCase gc = io::ieee118_dse();
  TopologyReplayPlan plan;
  plan.seed = 3;
  plan.events.push_back(
      {1, {grid::TopologyEventKind::kLineOutage, 17, -1}});
  // Drop the one scheduled event: a lost switching/status update.
  FaultPlan chaos;
  chaos.seed = 3;
  FaultRule rule;
  rule.site = "topology.apply";
  chaos.rules.push_back(rule);
  fault::install(chaos);

  core::DseSystem sys(io::ieee118_dse(), replay_config(plan.to_json()));
  (void)sys.run_cycle(0.0);
  const core::CycleReport rep = sys.run_cycle(60.0);
  fault::clear();

  // The plan moved on, the grid did not.
  EXPECT_EQ(rep.topology.events_applied, 0);
  EXPECT_TRUE(rep.topology.changed_branches.empty());
  EXPECT_EQ(sys.live_topology()->num_out_of_service(), 0u);
  ASSERT_EQ(sys.replay()->log().size(), 1u);
  EXPECT_TRUE(sys.replay()->log()[0].dropped);
  EXPECT_NE(sys.replay_log_json().find("\"dropped\":true"), std::string::npos);
}

TEST(TopologyReplayDseTest, TenThousandBusTierSurvivesTheArc) {
  if (GRIDSE_TSAN_ENABLED) {
    GTEST_SKIP() << "10k replay arc runs in non-tsan legs";
  }
  io::GeneratedCase gc = io::interconnection10k();
  graph::PartitionOptions popts;
  popts.k = 32;
  popts.seed = 7;
  popts.objective = graph::PartitionObjective::kConvergenceAware;
  gc.subsystem_of_bus = decomp::partition_buses(gc.kase.network, popts);

  // Tighter arc than the default: one spaced outage per cycle plus the
  // guaranteed dead-island split, so the tier exercises every phase while
  // staying test-sized.
  ReplayScenarioOptions sopts;
  sopts.num_outages = 3;
  sopts.hold_cycles = 1;
  const TopologyReplayPlan plan =
      TopologyReplayPlan::generate(gc.kase.network, 10, sopts);

  core::SystemConfig cfg = replay_config(plan.to_json());
  cfg.mapping.num_clusters = 4;
  cfg.dse.workers_per_cluster = 4;
  core::DseSystem sys(std::move(gc), cfg);
  bool saw_islanding = false;
  for (std::int64_t c = 0; c <= plan.last_cycle() + 1; ++c) {
    const core::CycleReport rep = sys.run_cycle(static_cast<double>(c) * 60.0);
    EXPECT_TRUE(rep.dse.all_converged) << "cycle " << c;
    EXPECT_LT(rep.max_vm_error, 0.05) << "cycle " << c;
    saw_islanding = saw_islanding || rep.topology.num_islands > 1;
  }
  EXPECT_TRUE(saw_islanding);
  EXPECT_TRUE(sys.replay()->finished());
  EXPECT_EQ(sys.live_topology()->num_out_of_service(), 0u);
}

}  // namespace
}  // namespace gridse::fault
