// Topology events under chaos: a cluster loss landing in the SAME cycle as
// a topology batch. Mirrors the recovery_chaos suite: recovery_config()-style
// setup, kill-rank-1 fault plan, GRIDSE_CHAOS_REPORT_DIR health reports for
// the CI chaos job.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "fault/fault.hpp"
#include "fault/topology_replay.hpp"
#include "io/synthetic.hpp"
#include "medici/medici_comm.hpp"
#include "runtime/resilience.hpp"

namespace gridse::core {
namespace {

/// One line outage at cycle 1 — enough to touch subsystems.
std::string outage_plan_json() {
  fault::TopologyReplayPlan plan;
  plan.seed = 21;
  plan.events.push_back(
      {1, {grid::TopologyEventKind::kLineOutage, 17, -1}});
  return plan.to_json();
}

/// IEEE-118, three clusters, TCP, recovery on (same tightened heartbeat as
/// the recovery_chaos suite) plus the one-outage topology plan.
SystemConfig topo_recovery_config() {
  SystemConfig cfg;
  cfg.truth_mode = TruthMode::kDcLinearized;
  cfg.mapping.num_clusters = 3;
  cfg.transport = Transport::kMediciDirect;
  cfg.resilience.barrier_timeout = std::chrono::milliseconds{30'000};
  cfg.dse.exchange_deadline = std::chrono::milliseconds{2000};
  cfg.resilience.recovery.enabled = true;
  cfg.resilience.recovery.heartbeat_period = std::chrono::milliseconds{5};
  cfg.resilience.recovery.heartbeat_timeout = std::chrono::milliseconds{500};
  cfg.resilience.recovery.heartbeat_rounds = 2;
  cfg.topology.plan = outage_plan_json();
  return cfg;
}

fault::FaultPlan kill_rank1_plan() {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back({.site = "client.send",
                        .action = fault::ActionKind::kDrop,
                        .source = 1,
                        .tag_min = 0,
                        .tag_max = medici::MediciWorld::kMaxUserTag});
  return plan;
}

int max_step1_iterations(const CycleReport& rep, bool warm_only) {
  int worst = 0;
  for (const SubsystemTrace& t : rep.dse.traces) {
    if (t.step1.gauss_newton_iterations == 0) continue;  // adopted, not run
    if (warm_only && !t.step1.warm_start) continue;
    worst = std::max(worst, t.step1.gauss_newton_iterations);
  }
  return worst;
}

/// Chaos health report with the topology block bench_gate.py reads
/// informationally (events_applied / islands).
void write_health_report(const std::string& name, const DseSystem& sys,
                         const CycleReport& degraded_cycle,
                         const CycleReport& final_cycle,
                         std::uint64_t injected, double seconds) {
  const auto dir = gridse::runtime::env_value("GRIDSE_CHAOS_REPORT_DIR");
  if (!dir) {
    return;
  }
  std::ostringstream json;
  json << "{\"test\":\"" << name << "\",\"injected\":" << injected
       << ",\"retries\":0,\"seconds\":" << seconds << ",\"all_converged\":"
       << (final_cycle.dse.all_converged ? "true" : "false")
       << ",\"degraded\":[";
  for (std::size_t i = 0; i < degraded_cycle.dse.degraded.size(); ++i) {
    const DegradedStatus& st = degraded_cycle.dse.degraded[i];
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
  for (std::size_t i = 0; i < degraded_cycle.dse.unresponsive_ranks.size();
       ++i) {
    if (i > 0) json << ",";
    json << degraded_cycle.dse.unresponsive_ranks[i];
  }
  const Supervisor* sup = sys.supervisor();
  json << "],\"injections\":" << fault::log_to_json()
       << ",\"recovery\":{\"remaps\":" << (sup ? sup->remaps() : 0)
       << ",\"rejoins\":" << (sup ? sup->rejoins() : 0)
       << ",\"checkpoint_bytes\":"
       << final_cycle.dse.recovery.checkpoint_bytes << "},\"topology\":{"
       << "\"events_applied\":"
       << (sys.replay() ? sys.replay()->events_applied() : 0)
       << ",\"islands\":" << final_cycle.topology.num_islands
       << "},\"replay\":" << sys.replay_log_json() << "}";
  std::ofstream out(*dir + "/" + name + ".json",
                    std::ios::binary | std::ios::trunc);
  if (out) {
    out << json.str() << "\n";
  }
}

class TopologyChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kEnabled) {
      GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
    }
    fault::clear();
  }
  void TearDown() override { fault::clear(); }
};

TEST_F(TopologyChaosTest, ClusterKillDuringTopologyBatchComposes) {
  DseSystem sys(io::ieee118_dse(), topo_recovery_config());
  ASSERT_TRUE(sys.recovery_enabled());
  const auto start = std::chrono::steady_clock::now();

  // Cycle 0: healthy baseline.
  const CycleReport healthy = sys.run_cycle(0.0);
  EXPECT_TRUE(healthy.dse.all_converged);
  const int cold_iters = max_step1_iterations(healthy, /*warm_only=*/false);

  // Cycle 1: rank 1 goes silent in the SAME cycle the topology batch
  // applies. Both machineries fire: the event is applied at the cycle top,
  // the heartbeat condemns the silenced rank mid-run, and the cycle
  // finishes degraded — not failed.
  fault::install(kill_rank1_plan());
  const CycleReport killed = sys.run_cycle(60.0);
  const std::uint64_t injected = fault::injected_count();
  fault::clear();
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(killed.topology.events_applied, 1);
  EXPECT_TRUE(killed.dse.degraded_mode());
  EXPECT_EQ(killed.dse.unresponsive_ranks, (std::vector<int>{1}));
  const int dead_cluster = killed.participants.at(1);

  // Cycle 2: the recovery remap runs over the survivors while the grid is
  // still in its post-event shape — the two compose, the cycle is healthy,
  // and warm solves stay within the cold baseline.
  const CycleReport remapped = sys.run_cycle(120.0);
  EXPECT_EQ(remapped.participants.size(), 2u);
  EXPECT_TRUE(remapped.dse.all_converged);
  EXPECT_TRUE(remapped.dse.degraded.empty());
  EXPECT_LT(remapped.max_vm_error, 0.05);
  EXPECT_GT(remapped.dse.recovery.warm_started, 0);
  EXPECT_LE(max_step1_iterations(remapped, /*warm_only=*/true), cold_iters);
  EXPECT_EQ(sys.supervisor()->remaps(), 1);

  // Cycle 3: fold the revived cluster back in — full strength again on the
  // post-event topology.
  sys.announce_rejoin(dead_cluster);
  const CycleReport rejoined = sys.run_cycle(180.0);
  EXPECT_EQ(rejoined.participants, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(rejoined.dse.all_converged);
  EXPECT_TRUE(sys.replay()->finished());

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  write_health_report("topology_kill_compose", sys, killed, rejoined, injected,
                      seconds);
}

}  // namespace
}  // namespace gridse::core
