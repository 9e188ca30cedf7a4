#include "grid/dc_powerflow.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "util/error.hpp"
#include "io/synthetic.hpp"

namespace gridse::grid {
namespace {

TEST(DcPowerFlow, TwoBusAnalytic) {
  Network n;
  Bus slack;
  slack.external_id = 1;
  slack.type = BusType::kSlack;
  n.add_bus(slack);
  Bus load;
  load.external_id = 2;
  load.p_load = 0.5;
  n.add_bus(load);
  Branch b;
  b.from = 0;
  b.to = 1;
  b.x = 0.1;
  n.add_branch(b);
  const auto r = solve_dc_power_flow(n);
  ASSERT_TRUE(r.has_value());
  // flow = P = 0.5 from slack to load; theta2 = -P*x = -0.05
  EXPECT_NEAR(r->flows[0], 0.5, 1e-12);
  EXPECT_NEAR(r->theta[1], -0.05, 1e-12);
  EXPECT_DOUBLE_EQ(r->theta[0], 0.0);
}

TEST(DcPowerFlow, FlowsBalanceAtEveryBus) {
  const auto c = io::ieee14();
  const auto r = solve_dc_power_flow(c.network);
  ASSERT_TRUE(r.has_value());
  for (BusIndex i = 0; i < c.network.num_buses(); ++i) {
    if (i == c.network.slack_bus()) continue;  // slack absorbs the balance
    double net = 0.0;
    for (const std::size_t bi : c.network.branches_at(i)) {
      const Branch& br = c.network.branch(bi);
      net += (br.from == i) ? -r->flows[bi] : r->flows[bi];
    }
    EXPECT_NEAR(net, -c.network.scheduled_injection(i).first, 1e-9)
        << "bus " << i;
  }
}

TEST(DcPowerFlow, ApproximatesAcAngles) {
  // DC angles track the AC solution within a few degrees on IEEE 14.
  const auto c = io::ieee14();
  const auto dc = solve_dc_power_flow(c.network);
  const auto ac = solve_power_flow(c.network);
  ASSERT_TRUE(dc.has_value());
  ASSERT_TRUE(ac.converged);
  for (BusIndex i = 0; i < c.network.num_buses(); ++i) {
    EXPECT_NEAR(dc->theta[static_cast<std::size_t>(i)],
                ac.state.theta[static_cast<std::size_t>(i)], 0.06)
        << "bus " << i;
  }
}

TEST(DcPowerFlow, OutageRedistributesFlow) {
  const auto c = io::ieee14();
  const auto base = solve_dc_power_flow(c.network);
  // Outage branch 0 (line 1-2, the heaviest): the parallel path 1-5 must
  // pick up its flow.
  const auto post = solve_dc_power_flow(c.network, {0});
  ASSERT_TRUE(base.has_value() && post.has_value());
  EXPECT_DOUBLE_EQ(post->flows[0], 0.0);
  EXPECT_GT(std::abs(post->flows[1]), std::abs(base->flows[1]));
}

TEST(DcPowerFlow, IslandingDetected) {
  // Branch 13 is 7-8, the only line to bus 8: removing it islands bus 8.
  const auto c = io::ieee14();
  const auto idx8 = c.network.index_of(8);
  std::size_t radial = SIZE_MAX;
  for (const std::size_t bi : c.network.branches_at(idx8)) {
    radial = bi;
  }
  ASSERT_EQ(c.network.branches_at(idx8).size(), 1u);
  EXPECT_FALSE(solve_dc_power_flow(c.network, {radial}).has_value());
}

TEST(DcPowerFlow, MultipleOutagesSupported) {
  const auto c = io::ieee14();
  const auto r = solve_dc_power_flow(c.network, {2, 4});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->flows[2], 0.0);
  EXPECT_DOUBLE_EQ(r->flows[4], 0.0);
}

TEST(DcPowerFlow, PlanSlotReusedWhileBprimePatternHolds) {
  // The slot keeps B′'s plan and factor across solves of the same topology,
  // whatever the injections: a load-scaled solve reuses the factor and
  // returns exactly a fresh solve's angles. An outage changes B′ and forces
  // a refactor, over a new plan since the pattern changed.
  auto c = io::ieee14();
  BprimeFactor slot;
  const auto base = solve_dc_power_flow(c.network, slot);
  ASSERT_TRUE(base.has_value());
  ASSERT_NE(slot.plan(), nullptr);
  EXPECT_EQ(slot.factorizations(), 1u);
  const auto analyzed = slot.plan();

  c.network.scale_loads(1.1);
  const auto scaled = solve_dc_power_flow(c.network, slot);
  ASSERT_TRUE(scaled.has_value());
  EXPECT_EQ(slot.plan(), analyzed);
  EXPECT_EQ(slot.factorizations(), 1u);
  const auto fresh = solve_dc_power_flow(c.network);
  ASSERT_TRUE(fresh.has_value());
  for (std::size_t i = 0; i < fresh->theta.size(); ++i) {
    EXPECT_EQ(scaled->theta[i], fresh->theta[i]) << i;
  }

  // Branch 2 (2-3) joins two non-slack buses, so B′ loses an off-diagonal.
  ASSERT_TRUE(solve_dc_power_flow(c.network, slot, {2}).has_value());
  EXPECT_EQ(slot.factorizations(), 2u);
  EXPECT_NE(slot.plan()->fingerprint(), analyzed->fingerprint());
}

TEST(DcPowerFlow, FactorSlotRefactorsWhenOnlyBprimeValuesChange) {
  // A reactance change keeps B′'s pattern: the slot refactors over the
  // plan it has, and the angles equal a fresh solve's.
  auto c = io::ieee14();
  BprimeFactor slot;
  ASSERT_TRUE(solve_dc_power_flow(c.network, slot).has_value());
  const auto analyzed = slot.plan();
  Network changed;
  for (BusIndex i = 0; i < c.network.num_buses(); ++i) {
    changed.add_bus(c.network.bus(i));
  }
  for (std::size_t bi = 0; bi < c.network.num_branches(); ++bi) {
    Branch br = c.network.branch(bi);
    if (bi == 2) br.x *= 1.5;
    changed.add_branch(br);
  }
  const auto reused = solve_dc_power_flow(changed, slot);
  ASSERT_TRUE(reused.has_value());
  EXPECT_EQ(slot.factorizations(), 2u);
  EXPECT_EQ(slot.plan(), analyzed);
  const auto fresh = solve_dc_power_flow(changed);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(reused->theta, fresh->theta);
}

TEST(DcPowerFlow, OutOfRangeOutageThrows) {
  const auto c = io::ieee14();
  EXPECT_THROW(solve_dc_power_flow(c.network, {999}), InternalError);
}

TEST(AssignRatings, RespectsMarginAndFloor) {
  auto c = io::ieee14();
  const DcPowerFlow base =
      assign_ratings_from_base_case(c.network, 1.5, 0.3);
  for (std::size_t bi = 0; bi < c.network.num_branches(); ++bi) {
    const double rating = c.network.branch(bi).rating;
    EXPECT_GE(rating, 0.3 - 1e-12);
    EXPECT_GE(rating, 1.5 * std::abs(base.flows[bi]) - 1e-12);
    // base case must be secure under its own ratings
    EXPECT_LE(std::abs(base.flows[bi]), rating + 1e-12);
  }
}

TEST(AssignRatings, RejectsBadMargin) {
  auto c = io::ieee14();
  EXPECT_THROW(assign_ratings_from_base_case(c.network, 1.0), InternalError);
}

}  // namespace
}  // namespace gridse::grid
