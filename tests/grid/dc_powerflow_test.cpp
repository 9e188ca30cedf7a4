#include "grid/dc_powerflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "grid/powerflow.hpp"
#include "grid/topology.hpp"
#include "io/case14.hpp"

namespace gridse::grid {
namespace {

/// DC flow on branch `bi` from its from end: (θ_from − θ_to) / x.
double dc_flow(const Network& net, const std::vector<double>& theta,
               std::size_t bi) {
  const Branch& br = net.branch(bi);
  return (theta[static_cast<std::size_t>(br.from)] -
          theta[static_cast<std::size_t>(br.to)]) /
         br.x;
}

/// B′θ = P at every bus but the references (which balance their island):
/// the DC flows leaving each bus over its in-service branches add up to its
/// scheduled active injection.
void expect_bprime_balance(const Network& net,
                           const std::vector<double>& theta,
                           const std::vector<BusIndex>& references) {
  ASSERT_EQ(theta.size(), static_cast<std::size_t>(net.num_buses()));
  for (BusIndex i = 0; i < net.num_buses(); ++i) {
    if (std::find(references.begin(), references.end(), i) !=
        references.end()) {
      continue;
    }
    double leaving = 0.0;
    for (const std::size_t bi : net.branches_at(i)) {
      if (!net.branch(bi).in_service) continue;
      const double f = dc_flow(net, theta, bi);
      leaving += net.branch(bi).from == i ? f : -f;
    }
    EXPECT_NEAR(leaving, net.scheduled_injection(i).first, 1e-9)
        << "bus " << i;
  }
}

/// Take `branches` out through the live topology the replay drives, then
/// solve the island-aware DC power flow over the `islands` left.
std::vector<double> solve_with_outages(Network& net,
                                       const std::vector<int>& branches,
                                       IslandReport& islands) {
  LiveTopology live(net);
  for (const int bi : branches) {
    live.apply({TopologyEventKind::kLineOutage, bi, -1});
  }
  islands = live.islands();
  return solve_dc_power_flow_islands(net, islands);
}

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
  const std::vector<double> theta = solve_dc_power_flow(n);
  // B′θ = P at bus 2: θ2 / x = −0.5, so θ2 = −P·x = −0.05.
  EXPECT_NEAR(theta[1], -0.05, 1e-12);
  EXPECT_DOUBLE_EQ(theta[0], 0.0);
  expect_bprime_balance(n, theta, {n.slack_bus()});
}

TEST(DcPowerFlow, FlowsBalanceAtEveryBus) {
  const auto c = io::ieee14();
  const std::vector<double> theta = solve_dc_power_flow(c.network);
  EXPECT_EQ(theta[static_cast<std::size_t>(c.network.slack_bus())], 0.0);
  expect_bprime_balance(c.network, theta, {c.network.slack_bus()});
}

TEST(DcPowerFlow, ApproximatesAcAngles) {
  // DC angles track the AC solution within a few degrees on IEEE 14.
  const auto c = io::ieee14();
  const std::vector<double> dc = solve_dc_power_flow(c.network);
  const auto ac = solve_power_flow(c.network);
  ASSERT_TRUE(ac.converged);
  for (BusIndex i = 0; i < c.network.num_buses(); ++i) {
    EXPECT_NEAR(dc[static_cast<std::size_t>(i)],
                ac.state.theta[static_cast<std::size_t>(i)], 0.06)
        << "bus " << i;
  }
}

TEST(DcPowerFlow, OutageRedistributesFlow) {
  auto c = io::ieee14();
  const std::vector<double> base = solve_dc_power_flow(c.network);
  // Outage branch 0 (line 1-2, the heaviest): the parallel path 1-5 must
  // pick up its flow.
  IslandReport islands;
  const std::vector<double> post = solve_with_outages(c.network, {0}, islands);
  EXPECT_EQ(islands.num_islands, 1);
  EXPECT_GT(std::abs(dc_flow(c.network, post, 1)),
            std::abs(dc_flow(c.network, base, 1)));
  expect_bprime_balance(c.network, post, islands.reference_bus);
}

TEST(DcPowerFlow, IslandingDetected) {
  // Branch 13 is 7-8, the only line to bus 8: removing it islands bus 8, a
  // synchronous condenser that becomes the reference of its own island.
  auto c = io::ieee14();
  const auto idx8 = c.network.index_of(8);
  ASSERT_EQ(c.network.branches_at(idx8).size(), 1u);
  const auto radial = static_cast<int>(c.network.branches_at(idx8).front());
  IslandReport islands;
  const std::vector<double> theta =
      solve_with_outages(c.network, {radial}, islands);
  ASSERT_EQ(islands.num_islands, 2);
  const auto island8 = static_cast<std::size_t>(
      islands.island_of_bus[static_cast<std::size_t>(idx8)]);
  EXPECT_EQ(islands.reference_bus[island8], idx8);
  EXPECT_EQ(theta[static_cast<std::size_t>(idx8)], 0.0);
  expect_bprime_balance(c.network, theta, islands.reference_bus);
}

TEST(DcPowerFlow, MultipleOutagesSupported) {
  auto c = io::ieee14();
  const std::vector<double> base = solve_dc_power_flow(c.network);
  IslandReport islands;
  const std::vector<double> theta =
      solve_with_outages(c.network, {2, 4}, islands);
  EXPECT_EQ(islands.num_islands, 1);
  EXPECT_FALSE(c.network.branch(2).in_service);
  EXPECT_FALSE(c.network.branch(4).in_service);
  EXPECT_NE(theta, base);
  expect_bprime_balance(c.network, theta, islands.reference_bus);
}

TEST(DcPowerFlow, PlanSlotReusedWhileBprimePatternHolds) {
  // The slot keeps B′'s plan and factor across solves of the same topology,
  // whatever the injections: a load-scaled solve reuses the factor and
  // returns exactly a fresh solve's angles.
  auto c = io::ieee14();
  BprimeFactor slot;
  (void)solve_dc_power_flow(c.network, slot);
  ASSERT_NE(slot.plan(), nullptr);
  EXPECT_EQ(slot.factorizations(), 1u);
  const auto analyzed = slot.plan();

  c.network.scale_loads(1.1);
  const std::vector<double> scaled = solve_dc_power_flow(c.network, slot);
  EXPECT_EQ(slot.plan(), analyzed);
  EXPECT_EQ(slot.factorizations(), 1u);
  EXPECT_EQ(scaled, solve_dc_power_flow(c.network));
}

TEST(DcPowerFlow, FactorSlotRefactorsWhenOnlyBprimeValuesChange) {
  // A reactance change keeps B′'s pattern: the slot refactors over the
  // plan it has, and the angles equal a fresh solve's.
  auto c = io::ieee14();
  BprimeFactor slot;
  (void)solve_dc_power_flow(c.network, slot);
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
  const std::vector<double> reused = solve_dc_power_flow(changed, slot);
  EXPECT_EQ(slot.factorizations(), 2u);
  EXPECT_EQ(slot.plan(), analyzed);
  EXPECT_EQ(reused, solve_dc_power_flow(changed));
}

}  // namespace
}  // namespace gridse::grid
