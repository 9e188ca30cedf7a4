#include "runtime/recovery.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/debug_sync.hpp"
#include "fault/fault.hpp"
#include "runtime/inproc_comm.hpp"
#include "util/error.hpp"

namespace gridse::runtime {
namespace {

HeartbeatSettings fast_settings() {
  HeartbeatSettings s;
  s.period = std::chrono::milliseconds{5};
  s.timeout = std::chrono::milliseconds{400};
  s.rounds = 2;
  return s;
}

/// Run probe_membership on every rank of `world`, collect the per-rank views.
template <typename World>
std::vector<MembershipView> probe_all(World& world, int size,
                                      const HeartbeatSettings& settings) {
  std::vector<MembershipView> views(static_cast<std::size_t>(size));
  analysis::Mutex mutex{"recovery_test::mutex"};
  world.run([&](Communicator& comm) {
    MembershipView v = probe_membership(comm, settings);
    analysis::LockGuard lock(mutex);
    views[static_cast<std::size_t>(comm.rank())] = std::move(v);
  });
  return views;
}

class RecoveryProbeTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear(); }
};

TEST_F(RecoveryProbeTest, SingleRankIsTriviallyAlive) {
  InprocWorld world(1);
  const auto views = probe_all(world, 1, fast_settings());
  ASSERT_EQ(views[0].states.size(), 1u);
  EXPECT_TRUE(views[0].all_alive());
  EXPECT_TRUE(views[0].consensus);
}

TEST_F(RecoveryProbeTest, HealthyWorldAgreesAllAlive) {
  InprocWorld world(3);
  const auto views = probe_all(world, 3, fast_settings());
  for (const MembershipView& v : views) {
    ASSERT_EQ(v.states.size(), 3u);
    EXPECT_TRUE(v.all_alive());
    EXPECT_TRUE(v.consensus);
    EXPECT_EQ(v.num_alive(), 3);
  }
}

TEST_F(RecoveryProbeTest, SilentRankIsDeadOnEveryView) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
  }
  // Drop every heartbeat-layer frame rank 1 sends (beats + its membership
  // report): all peers observe zero beats, the consensus marks it dead.
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultRule rule;
  rule.site = "mailbox.deliver";
  rule.source = 1;
  rule.tag_min = kHeartbeatTagBase;
  rule.tag_max = kMembershipViewTag;
  plan.rules.push_back(rule);
  fault::install(plan);

  InprocWorld world(3);
  const auto views = probe_all(world, 3, fast_settings());
  for (const MembershipView& v : views) {
    ASSERT_EQ(v.states.size(), 3u);
    EXPECT_TRUE(v.consensus);
    EXPECT_EQ(v.states[1], RankState::kDead);
    EXPECT_FALSE(v.alive(1));
    EXPECT_TRUE(v.alive(0));
    EXPECT_TRUE(v.alive(2));
    EXPECT_EQ(v.dead_ranks(), (std::vector<int>{1}));
  }
}

TEST_F(RecoveryProbeTest, PartialBeatsMeanSuspectNotDead) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
  }
  // Drop only round 1 of rank 1's beats: peers see one of two rounds, so
  // rank 1 is suspect — still alive for exchange purposes.
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultRule rule;
  rule.site = "mailbox.deliver";
  rule.source = 1;
  rule.tag_min = heartbeat_tag(1);
  rule.tag_max = heartbeat_tag(1);
  plan.rules.push_back(rule);
  fault::install(plan);

  InprocWorld world(3);
  const auto views = probe_all(world, 3, fast_settings());
  for (const MembershipView& v : views) {
    EXPECT_TRUE(v.consensus);
    EXPECT_EQ(v.states[1], RankState::kSuspect);
    EXPECT_TRUE(v.alive(1));
    EXPECT_EQ(v.suspect_ranks(), (std::vector<int>{1}));
    EXPECT_TRUE(v.dead_ranks().empty());
  }
}

TEST_F(RecoveryProbeTest, ViewIsDeterministicPerSeed) {
  if (!fault::kEnabled) {
    GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
  }
  fault::FaultPlan plan;
  plan.seed = 21;
  fault::FaultRule rule;
  rule.site = "mailbox.deliver";
  rule.source = 2;
  rule.tag_min = kHeartbeatTagBase;
  rule.tag_max = kMembershipViewTag;
  plan.rules.push_back(rule);

  std::vector<std::vector<MembershipView>> runs;
  for (int attempt = 0; attempt < 2; ++attempt) {
    fault::install(plan);
    InprocWorld world(3);
    runs.push_back(probe_all(world, 3, fast_settings()));
    fault::clear();
  }
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(runs[0][static_cast<std::size_t>(r)].states,
              runs[1][static_cast<std::size_t>(r)].states)
        << "rank " << r;
  }
}

TEST(MembershipCodec, RoundTrips) {
  MembershipView view;
  view.states = {RankState::kAlive, RankState::kSuspect, RankState::kDead,
                 RankState::kRejoining};
  const auto bytes = encode_membership(view);
  const MembershipView decoded = decode_membership(bytes);
  EXPECT_EQ(decoded.states, view.states);
  EXPECT_TRUE(decoded.consensus);
}

TEST(MembershipCodec, RejectsMalformedFrames) {
  MembershipView view;
  view.states = {RankState::kAlive, RankState::kDead};
  auto bytes = encode_membership(view);
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW((void)decode_membership(truncated), gridse::InvalidInput);
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_membership(trailing), gridse::InvalidInput);
  auto bad_state = bytes;
  bad_state.back() = 200;  // not a RankState
  EXPECT_THROW((void)decode_membership(bad_state), gridse::InvalidInput);
}

TEST(RankStateNames, AreStable) {
  EXPECT_STREQ(to_string(RankState::kAlive), "alive");
  EXPECT_STREQ(to_string(RankState::kSuspect), "suspect");
  EXPECT_STREQ(to_string(RankState::kDead), "dead");
  EXPECT_STREQ(to_string(RankState::kRejoining), "rejoining");
}

}  // namespace
}  // namespace gridse::runtime
