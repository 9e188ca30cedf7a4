#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "fault/fault.hpp"
#include "grid/state.hpp"
#include "io/synthetic.hpp"
#include "medici/medici_comm.hpp"
#include "runtime/recovery.hpp"
#include "util/error.hpp"

namespace gridse::core {
namespace {

using runtime::RankState;

/// IEEE-118, three clusters, TCP transport, recovery on. The heartbeat is
/// tightened so a full kill/remap/rejoin sequence stays test-sized.
SystemConfig recovery_config() {
  SystemConfig cfg;
  cfg.mapping.num_clusters = 3;
  cfg.transport = Transport::kMediciDirect;
  cfg.resilience.barrier_timeout = std::chrono::milliseconds{30'000};
  cfg.dse.exchange_deadline = std::chrono::milliseconds{2000};
  cfg.resilience.recovery.enabled = true;
  cfg.resilience.recovery.heartbeat.period = std::chrono::milliseconds{5};
  cfg.resilience.recovery.heartbeat.timeout = std::chrono::milliseconds{500};
  cfg.resilience.recovery.heartbeat.rounds = 2;
  return cfg;
}

/// Kill comm-rank 1 for the duration of one cycle: every frame it sends in
/// the user-tag range is dropped before the wire — heartbeats, pseudo
/// measurements, combine, reports. Barrier control (above kMaxUserTag) is
/// spared so the in-process world still tears down cleanly; the *detection*
/// must come from the heartbeat layer, not from a hung barrier.
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

struct Sequence {
  CycleReport healthy;   // cycle 0: baseline, checkpoints seeded
  CycleReport killed;    // cycle 1: rank 1 silenced mid-run
  CycleReport remapped;  // cycle 2: survivors only
  CycleReport rejoined;  // cycle 3: revived cluster folded back in
  std::vector<fault::InjectionRecord> kill_log;
  std::string kill_log_json = "[]";
  std::uint64_t injected = 0;
  int dead_cluster = -1;
};

/// Drive one system through the full recovery state machine.
Sequence run_sequence(DseSystem& sys) {
  Sequence seq;
  seq.healthy = sys.run_cycle(0.0);

  fault::install(kill_rank1_plan());
  seq.killed = sys.run_cycle(60.0);
  seq.kill_log = fault::injection_log();
  seq.kill_log_json = fault::log_to_json();
  seq.injected = fault::injected_count();
  fault::clear();
  // The comm rank the heartbeat condemned maps through the participant
  // list back to the cluster the supervisor took out of rotation.
  seq.dead_cluster = seq.killed.participants.at(1);

  seq.remapped = sys.run_cycle(120.0);
  sys.announce_rejoin(seq.dead_cluster);
  seq.rejoined = sys.run_cycle(180.0);
  return seq;
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

/// Chaos health report for the CI chaos-recovery job (same shape as the
/// chaos_dse suite, plus the recovery block bench_gate.py validates).
void write_health_report(const std::string& name, const Sequence& seq,
                         const DseSystem& sys, double seconds) {
  const auto dir = gridse::runtime::env_value("GRIDSE_CHAOS_REPORT_DIR");
  if (!dir) {
    return;
  }
  std::ostringstream json;
  json << "{\"test\":\"" << name << "\",\"injected\":" << seq.injected
       << ",\"retries\":0,\"seconds\":" << seconds << ",\"all_converged\":"
       << (seq.rejoined.dse.all_converged ? "true" : "false")
       << ",\"degraded\":[";
  for (std::size_t i = 0; i < seq.killed.dse.degraded.size(); ++i) {
    const DegradedStatus& st = seq.killed.dse.degraded[i];
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
  for (std::size_t i = 0; i < seq.killed.dse.unresponsive_ranks.size(); ++i) {
    if (i > 0) json << ",";
    json << seq.killed.dse.unresponsive_ranks[i];
  }
  json << "],\"recovery\":{\"remaps\":" << sys.supervisor()->remaps()
       << ",\"rejoins\":" << sys.supervisor()->rejoins()
       << ",\"checkpoint_bytes\":"
       << seq.rejoined.dse.recovery.checkpoint_bytes
       << "},\"injections\":" << seq.kill_log_json << "}";
  std::ofstream out(*dir + "/" + name + ".json",
                    std::ios::binary | std::ios::trunc);
  if (out) {
    out << json.str() << "\n";
  }
}

class RecoveryChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kEnabled) {
      GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
    }
    fault::clear();
  }
  void TearDown() override { fault::clear(); }
};

TEST_F(RecoveryChaosTest, KillRemapRejoinEndToEnd) {
  DseSystem sys(io::ieee118_dse(), recovery_config());
  ASSERT_TRUE(sys.recovery_enabled());
  const auto start = std::chrono::steady_clock::now();
  const Sequence seq = run_sequence(sys);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  write_health_report("kill_remap_rejoin", seq, sys, seconds);

  // Cycle 0 (healthy): full participation, a checkpoint gathered for every
  // subsystem, nothing degraded.
  EXPECT_EQ(seq.healthy.participants, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(seq.healthy.dse.all_converged);
  EXPECT_FALSE(seq.healthy.dse.degraded_mode());
  EXPECT_TRUE(seq.healthy.dse.recovery.enabled);
  EXPECT_TRUE(seq.healthy.dse.recovery.membership.all_alive());
  EXPECT_EQ(seq.healthy.dse.recovery.checkpoints.size(),
            sys.decomposition().subsystems.size());
  EXPECT_GT(seq.healthy.dse.recovery.checkpoint_bytes, 0u);

  // Cycle 1 (kill): the heartbeat — not an exchange timeout — detects the
  // silenced rank; the cycle finishes degraded instead of failing.
  EXPECT_GT(seq.injected, 0u);
  ASSERT_EQ(seq.killed.dse.recovery.membership.states.size(), 3u);
  EXPECT_EQ(seq.killed.dse.recovery.membership.states[1], RankState::kDead);
  EXPECT_TRUE(seq.killed.dse.recovery.membership.consensus);
  EXPECT_TRUE(seq.killed.dse.degraded_mode());
  EXPECT_EQ(seq.killed.dse.unresponsive_ranks, (std::vector<int>{1}));
  EXPECT_EQ(seq.dead_cluster, 1);

  // Cycle 2 (remap): exactly the survivors participate, every subsystem is
  // hosted in-range, and the cycle is *healthy* — zero degraded
  // subsystems, not merely degraded-but-bounded.
  EXPECT_EQ(seq.remapped.participants.size(), 2u);
  EXPECT_EQ(seq.remapped.participants,
            (std::vector<int>{0, 2}));
  EXPECT_FALSE(seq.remapped.migrated_subsystems.empty());
  for (const graph::PartId p :
       seq.remapped.map_step2.partition.assignment) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 2);
  }
  EXPECT_TRUE(seq.remapped.dse.all_converged);
  EXPECT_TRUE(seq.remapped.dse.degraded.empty());
  EXPECT_TRUE(seq.remapped.dse.unresponsive_ranks.empty());
  EXPECT_TRUE(seq.remapped.dse.recovery.membership.all_alive());
  EXPECT_LT(seq.remapped.max_vm_error, 0.02);

  // Warm restart: restored checkpoints seeded Step 1, and no warm solve
  // needed more Gauss-Newton iterations than the cold baseline.
  EXPECT_GT(seq.remapped.dse.recovery.warm_started, 0);
  EXPECT_LE(max_step1_iterations(seq.remapped, /*warm_only=*/true),
            max_step1_iterations(seq.healthy, /*warm_only=*/false));

  // Cycle 3 (rejoin): the revived cluster is folded back in at the next
  // remap epoch and actually hosts work again.
  EXPECT_EQ(seq.rejoined.participants, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(seq.rejoined.dse.all_converged);
  EXPECT_TRUE(seq.rejoined.dse.degraded.empty());
  const auto& rejoined_assignment =
      seq.rejoined.map_step2.partition.assignment;
  EXPECT_NE(std::count(rejoined_assignment.begin(),
                       rejoined_assignment.end(), graph::PartId{1}),
            0);
  EXPECT_EQ(sys.supervisor()->remaps(), 1);
  EXPECT_EQ(sys.supervisor()->rejoins(), 1);
  EXPECT_EQ(sys.supervisor()->state_of(1), RankState::kAlive);
}

TEST_F(RecoveryChaosTest, SequenceIsDeterministicPerSeed) {
  DseSystem a(io::ieee118_dse(), recovery_config());
  DseSystem b(io::ieee118_dse(), recovery_config());
  const Sequence sa = run_sequence(a);
  const Sequence sb = run_sequence(b);

  // Same seed => identical fault schedule, membership verdicts, remapped
  // assignments, and migration sets — the chaos determinism contract
  // extended across the whole recovery state machine.
  EXPECT_EQ(sa.kill_log, sb.kill_log);
  EXPECT_EQ(sa.killed.dse.recovery.membership.states,
            sb.killed.dse.recovery.membership.states);
  EXPECT_EQ(sa.dead_cluster, sb.dead_cluster);
  EXPECT_EQ(sa.remapped.participants, sb.remapped.participants);
  EXPECT_EQ(sa.remapped.map_step1.partition.assignment,
            sb.remapped.map_step1.partition.assignment);
  EXPECT_EQ(sa.remapped.map_step2.partition.assignment,
            sb.remapped.map_step2.partition.assignment);
  EXPECT_EQ(sa.remapped.migrated_subsystems, sb.remapped.migrated_subsystems);
  EXPECT_EQ(sa.rejoined.map_step2.partition.assignment,
            sb.rejoined.map_step2.partition.assignment);
  EXPECT_DOUBLE_EQ(
      grid::max_vm_error(sa.remapped.dse.state, sb.remapped.dse.state), 0.0);
}

TEST_F(RecoveryChaosTest, RecoveryDisabledMatchesHistoricalBehavior) {
  // The entire layer is opt-in: with recovery off the report carries no
  // membership view, no checkpoints, and the full participant set.
  SystemConfig cfg = recovery_config();
  cfg.resilience.recovery.enabled = false;
  DseSystem sys(io::ieee118_dse(), cfg);
  EXPECT_FALSE(sys.recovery_enabled());
  EXPECT_EQ(sys.supervisor(), nullptr);
  const CycleReport rep = sys.run_cycle(0.0);
  EXPECT_EQ(rep.participants, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(rep.dse.recovery.enabled);
  EXPECT_TRUE(rep.dse.recovery.checkpoints.empty());
  EXPECT_TRUE(rep.dse.recovery.membership.states.empty());
  EXPECT_THROW(sys.kill_cluster(1), InternalError);
}

}  // namespace
}  // namespace gridse::core
