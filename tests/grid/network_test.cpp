#include "grid/network.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace gridse::grid {
namespace {

Network two_bus() {
  Network n;
  Bus slack;
  slack.external_id = 1;
  slack.type = BusType::kSlack;
  n.add_bus(slack);
  Bus load;
  load.external_id = 2;
  load.p_load = 0.5;
  load.q_load = 0.1;
  n.add_bus(load);
  Branch b;
  b.from = 0;
  b.to = 1;
  b.x = 0.1;
  n.add_branch(b);
  return n;
}

TEST(Network, BasicConstruction) {
  const Network n = two_bus();
  EXPECT_EQ(n.num_buses(), 2);
  EXPECT_EQ(n.num_branches(), 1u);
  EXPECT_EQ(n.slack_bus(), 0);
  EXPECT_EQ(n.index_of(2), 1);
  n.validate();
}

TEST(Network, DuplicateExternalIdRejected) {
  Network n = two_bus();
  Bus dup;
  dup.external_id = 1;
  EXPECT_THROW(n.add_bus(dup), InvalidInput);
}

TEST(Network, UnknownExternalIdThrows) {
  const Network n = two_bus();
  EXPECT_THROW((void)n.index_of(99), InvalidInput);
}

TEST(Network, BranchValidation) {
  Network n = two_bus();
  Branch bad;
  bad.from = 0;
  bad.to = 0;
  bad.x = 0.1;
  EXPECT_THROW(n.add_branch(bad), InvalidInput);
  bad.to = 5;
  EXPECT_THROW(n.add_branch(bad), InvalidInput);
  bad.to = 1;
  bad.x = 0.0;
  bad.r = 0.0;
  EXPECT_THROW(n.add_branch(bad), InvalidInput);
  bad.x = 0.1;
  bad.tap = 0.0;
  EXPECT_THROW(n.add_branch(bad), InvalidInput);
}

TEST(Network, SlackCountEnforced) {
  Network none;
  Bus b1;
  b1.external_id = 1;
  none.add_bus(b1);
  EXPECT_THROW((void)none.slack_bus(), InvalidInput);

  Network two = two_bus();
  two.set_bus_type(1, BusType::kSlack, 1.0);
  EXPECT_THROW((void)two.slack_bus(), InvalidInput);
}

TEST(Network, ConnectivityDetection) {
  Network n = two_bus();
  EXPECT_TRUE(n.connected());
  Bus isolated;
  isolated.external_id = 3;
  n.add_bus(isolated);
  EXPECT_FALSE(n.connected());
  EXPECT_THROW(n.validate(), InvalidInput);
}

TEST(Network, ScheduledInjection) {
  Network n = two_bus();
  n.add_generation(1, 0.3, 0.05);
  const auto [p, q] = n.scheduled_injection(1);
  EXPECT_DOUBLE_EQ(p, 0.3 - 0.5);
  EXPECT_DOUBLE_EQ(q, 0.05 - 0.1);
}

TEST(Network, ScaleLoadsMultipliesLoadAndGeneration) {
  Network n = two_bus();
  n.add_generation(1, 0.3, 0.05);
  n.scale_loads(2.0);
  EXPECT_DOUBLE_EQ(n.bus(1).p_load, 1.0);
  EXPECT_DOUBLE_EQ(n.bus(1).q_load, 0.2);
  EXPECT_DOUBLE_EQ(n.bus(1).p_gen, 0.6);
  EXPECT_THROW(n.scale_loads(0.0), InternalError);
}

TEST(Network, BranchesAtTracksIncidence) {
  Network n = two_bus();
  Bus third;
  third.external_id = 3;
  n.add_bus(third);
  Branch b;
  b.from = 1;
  b.to = 2;
  b.x = 0.2;
  n.add_branch(b);
  EXPECT_EQ(n.branches_at(0).size(), 1u);
  EXPECT_EQ(n.branches_at(1).size(), 2u);
  EXPECT_EQ(n.branches_at(2).size(), 1u);
}

}  // namespace
}  // namespace gridse::grid
