#include "core/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace gridse::core {
namespace {

using runtime::RankState;

EstimatorCheckpoint make_ckpt(int subsystem, std::int64_t cycle) {
  EstimatorCheckpoint ckpt;
  ckpt.subsystem = subsystem;
  ckpt.cycle = cycle;
  ckpt.step1_states = {{subsystem, 0.1 * cycle, 1.0}};
  return ckpt;
}

TEST(CheckpointStore, NewestWinsPerSubsystem) {
  CheckpointStore store;
  store.store(make_ckpt(2, 1));
  store.store(make_ckpt(2, 3));
  store.store(make_ckpt(2, 2));  // stale: must not replace cycle 3
  store.store(make_ckpt(5, 1));
  ASSERT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.latest(2).has_value());
  EXPECT_EQ(store.latest(2)->cycle, 3);
  EXPECT_EQ(store.latest(5)->cycle, 1);
  EXPECT_FALSE(store.latest(9).has_value());
  const auto snap = store.snapshot();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at(2).cycle, 3);
}

TEST(CheckpointStore, IgnoresInvalidSubsystem) {
  CheckpointStore store;
  store.store(make_ckpt(-1, 4));
  EXPECT_EQ(store.size(), 0u);
}

TEST(CheckpointStore, SpillsToDiskAndReloads) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "gridse_ckpt_spill")
          .string();
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir);
    store.store(make_ckpt(0, 2));
    store.store(make_ckpt(3, 7));
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / "ckpt_s3.bin"));
  }
  CheckpointStore reloaded(dir);
  EXPECT_EQ(reloaded.load_spilled(), 2u);
  ASSERT_TRUE(reloaded.latest(3).has_value());
  EXPECT_EQ(reloaded.latest(3)->cycle, 7);
  EXPECT_EQ(reloaded.latest(0)->cycle, 2);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, SkipsOlderLayoutSpill) {
  // A spill file in the older checkpoint layout (gain-reuse byte + a second
  // record vector) is skipped, so its subsystem cold-starts instead of
  // warm-starting from a misread frame.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "gridse_ckpt_old_layout";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir.string());
    store.store(make_ckpt(0, 2));
  }
  ByteWriter w;
  w.write(std::int32_t{4});
  w.write(std::int64_t{9});
  w.write(std::uint8_t{1});
  w.write_vector(std::vector<BusStateRecord>{{4, 0.1, 1.0}, {5, 0.2, 1.0}});
  w.write_vector(std::vector<BusStateRecord>{{5, 0.2, 1.0}});
  {
    std::ofstream out(dir / "ckpt_s4.bin", std::ios::binary);
    const std::vector<std::uint8_t> bytes = w.take();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  CheckpointStore reloaded(dir.string());
  EXPECT_EQ(reloaded.load_spilled(), 1u);
  EXPECT_TRUE(reloaded.latest(0).has_value());
  EXPECT_FALSE(reloaded.latest(4).has_value());
  std::filesystem::remove_all(dir);
}

TEST(Supervisor, HealthyLifeCycleKeepsAllParticipants) {
  Supervisor sup(3, runtime::RecoveryConfig{});
  EXPECT_EQ(sup.begin_cycle(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sup.begin_cycle(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sup.remaps(), 0);
  EXPECT_EQ(sup.rejoins(), 0);
  EXPECT_EQ(sup.state_of(1), RankState::kAlive);
}

TEST(Supervisor, KillRemapRejoinStateMachine) {
  runtime::RecoveryConfig config;
  config.rejoin_epoch = 1;
  Supervisor sup(3, config);
  ASSERT_EQ(sup.begin_cycle(), (std::vector<int>{0, 1, 2}));

  sup.kill_cluster(1);
  EXPECT_EQ(sup.state_of(1), RankState::kDead);
  EXPECT_EQ(sup.remaps(), 1);
  EXPECT_EQ(sup.begin_cycle(), (std::vector<int>{0, 2}));

  // announce_rejoin on a live cluster is a no-op; on the dead one it parks
  // the cluster in rejoining until the next epoch.
  sup.announce_rejoin(0);
  EXPECT_EQ(sup.state_of(0), RankState::kAlive);
  sup.announce_rejoin(1);
  EXPECT_EQ(sup.state_of(1), RankState::kRejoining);

  EXPECT_EQ(sup.begin_cycle(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sup.state_of(1), RankState::kAlive);
  EXPECT_EQ(sup.rejoins(), 1);
}

TEST(Supervisor, RejoinEpochDelaysReadmission) {
  runtime::RecoveryConfig config;
  config.rejoin_epoch = 2;
  Supervisor sup(2, config);
  (void)sup.begin_cycle();  // epoch 1
  sup.kill_cluster(1);
  sup.announce_rejoin(1);   // ready at epoch 3
  EXPECT_EQ(sup.begin_cycle(), (std::vector<int>{0}));       // epoch 2
  EXPECT_EQ(sup.begin_cycle(), (std::vector<int>{0, 1}));    // epoch 3
}

TEST(Supervisor, EveryClusterDeadThrows) {
  Supervisor sup(2, runtime::RecoveryConfig{});
  sup.kill_cluster(0);
  sup.kill_cluster(1);
  EXPECT_THROW((void)sup.begin_cycle(), InternalError);
}

TEST(Supervisor, ProjectAssignmentCompactsSurvivors) {
  Supervisor sup(3, runtime::RecoveryConfig{});
  sup.kill_cluster(1);
  const std::vector<int> participants = sup.begin_cycle();
  ASSERT_EQ(participants, (std::vector<int>{0, 2}));
  // Subsystems on clusters 0 and 2 keep their (compacted) hosts; the two
  // orphans of cluster 1 migrate to the least-loaded survivor.
  const std::vector<graph::PartId> cluster_assignment{0, 1, 2, 2, 1, 0};
  std::vector<int> migrated;
  const auto compact =
      sup.project_assignment(cluster_assignment, participants, &migrated);
  ASSERT_EQ(compact.size(), cluster_assignment.size());
  EXPECT_EQ(compact[0], 0);
  EXPECT_EQ(compact[2], 1);
  EXPECT_EQ(compact[3], 1);
  EXPECT_EQ(compact[5], 0);
  EXPECT_EQ(migrated, (std::vector<int>{1, 4}));
  for (const graph::PartId c : compact) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, static_cast<graph::PartId>(participants.size()));
  }
  // Balance: 6 subsystems over 2 survivors, greedy => 3 each.
  const auto count = [&](graph::PartId p) {
    return std::count(compact.begin(), compact.end(), p);
  };
  EXPECT_EQ(count(0), 3);
  EXPECT_EQ(count(1), 3);
}

TEST(Supervisor, AbsorbConfirmsHeartbeatDeaths) {
  Supervisor sup(3, runtime::RecoveryConfig{});
  const std::vector<int> participants = sup.begin_cycle();
  DseRecoveryResult recovery;
  recovery.enabled = true;
  recovery.membership.states = {RankState::kAlive, RankState::kSuspect,
                                RankState::kDead};
  recovery.checkpoints.push_back(make_ckpt(4, 0));
  sup.absorb(recovery, participants);
  EXPECT_EQ(sup.state_of(0), RankState::kAlive);
  EXPECT_EQ(sup.state_of(1), RankState::kAlive);  // suspect is not dead
  EXPECT_EQ(sup.state_of(2), RankState::kDead);
  EXPECT_EQ(sup.remaps(), 1);
  ASSERT_TRUE(sup.checkpoints().latest(4).has_value());
  EXPECT_EQ(sup.plan_restore().size(), 1u);
}

TEST(Supervisor, AbsorbMapsCompactRanksToClusters) {
  // After cluster 1 died, rank 1 of the shrunken world is cluster 2: a
  // heartbeat death of rank 1 must condemn cluster 2, not cluster 1.
  Supervisor sup(3, runtime::RecoveryConfig{});
  sup.kill_cluster(1);
  const std::vector<int> participants = sup.begin_cycle();
  ASSERT_EQ(participants, (std::vector<int>{0, 2}));
  DseRecoveryResult recovery;
  recovery.enabled = true;
  recovery.membership.states = {RankState::kAlive, RankState::kDead};
  sup.absorb(recovery, participants);
  EXPECT_EQ(sup.state_of(2), RankState::kDead);
}

}  // namespace
}  // namespace gridse::core
