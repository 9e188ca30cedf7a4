// Topology-change model: incremental Ybus maintenance vs full rebuilds,
// island detection vs a brute-force reference, the branch status machine,
// de-energization masking, anchor pseudo measurements, and the island-aware
// DC truth. The load-bearing invariant is the 1e-10 agreement between
// LiveTopology's in-place value patches and build_ybus on the mutated
// network — that is what lets pattern-keyed solver plans survive switching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <set>
#include <vector>

#include "grid/dc_powerflow.hpp"
#include "grid/meas_generator.hpp"
#include "grid/topology.hpp"
#include "grid/ybus.hpp"
#include "io/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gridse::grid {
namespace {

Network ieee118() { return io::ieee118_dse().kase.network; }

double max_ybus_diff(const sparse::CsrComplex& a, const sparse::CsrComplex& b) {
  EXPECT_EQ(a.values().size(), b.values().size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    worst = std::max(worst, std::abs(a.values()[i] - b.values()[i]));
  }
  return worst;
}

/// Brute-force islands: repeated scans over in-service branches until no
/// label changes (no BFS, no ordering assumptions beyond min-label).
std::vector<int> brute_force_islands(const Network& network) {
  const auto n = static_cast<std::size_t>(network.num_buses());
  std::vector<int> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = static_cast<int>(i);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = 0; bi < network.num_branches(); ++bi) {
      const Branch& br = network.branch(bi);
      if (!br.in_service) continue;
      const auto f = static_cast<std::size_t>(br.from);
      const auto t = static_cast<std::size_t>(br.to);
      const int m = std::min(label[f], label[t]);
      if (label[f] != m || label[t] != m) {
        label[f] = label[t] = m;
        changed = true;
      }
    }
  }
  return label;
}

TEST(LiveTopologyTest, IncrementalYbusMatchesRebuildOverRandomEvents) {
  Network net = ieee118();
  LiveTopology live(net);
  Rng rng(2026);
  const auto num_branches = static_cast<std::int64_t>(net.num_branches());
  for (int step = 0; step < 200; ++step) {
    TopologyEvent e;
    const int kind = static_cast<int>(rng.uniform_int(0, 5));
    e.kind = static_cast<TopologyEventKind>(kind);
    if (kind <= 3) {
      e.branch = static_cast<std::int32_t>(rng.uniform_int(0, num_branches - 1));
    } else {
      e.bus = static_cast<BusIndex>(rng.uniform_int(0, net.num_buses() - 1));
    }
    live.apply(e);
    // Same pattern (explicit zeros for open branches), same values to
    // 1e-10: subtract-then-add uses identical rounding both ways.
    const sparse::CsrComplex rebuilt = build_ybus(net);
    ASSERT_LT(max_ybus_diff(live.ybus(), rebuilt), 1e-10)
        << "diverged after step " << step;
  }
  // Restore everything and require an exact return to the base matrix.
  for (std::size_t bi = 0; bi < net.num_branches(); ++bi) {
    live.apply({TopologyEventKind::kLineRestore,
                static_cast<std::int32_t>(bi), -1});
    live.apply({TopologyEventKind::kBreakerClose,
                static_cast<std::int32_t>(bi), -1});
  }
  EXPECT_EQ(live.num_out_of_service(), 0u);
  EXPECT_LT(max_ybus_diff(live.ybus(), build_ybus(ieee118())), 1e-10);
}

TEST(LiveTopologyTest, StatusMachineFaultDominatesBreaker) {
  Network net = ieee118();
  LiveTopology live(net);
  // Breaker open, then a fault on the same line: status escalates.
  EXPECT_EQ(live.apply({TopologyEventKind::kBreakerOpen, 3, -1}).size(), 1u);
  EXPECT_EQ(live.status(3), BranchStatus::kBreakerOpen);
  // Escalation to fault is a status change (it alters what can reclose
  // the line) even though the in-service bit already flipped.
  EXPECT_EQ(live.apply({TopologyEventKind::kLineOutage, 3, -1}).size(), 1u);
  EXPECT_EQ(live.status(3), BranchStatus::kFaultOutage);
  // Breaker close cannot clear a fault; only restore can.
  EXPECT_TRUE(live.apply({TopologyEventKind::kBreakerClose, 3, -1}).empty());
  EXPECT_EQ(live.status(3), BranchStatus::kFaultOutage);
  EXPECT_EQ(live.apply({TopologyEventKind::kLineRestore, 3, -1}).size(), 1u);
  EXPECT_EQ(live.status(3), BranchStatus::kInService);
  // No-ops return empty change sets.
  EXPECT_TRUE(live.apply({TopologyEventKind::kLineRestore, 3, -1}).empty());
  // Out-of-range indices are rejected.
  EXPECT_THROW(live.apply({TopologyEventKind::kLineOutage, -1, -1}),
               InvalidInput);
  EXPECT_THROW(live.apply({TopologyEventKind::kBusSplit, -1,
                           net.num_buses()}),
               InvalidInput);
}

TEST(LiveTopologyTest, BusSplitOpensIncidentBranchesAndMergeRecloses) {
  Network net = ieee118();
  LiveTopology live(net);
  const BusIndex bus = 30;
  const std::vector<std::size_t> opened =
      live.apply({TopologyEventKind::kBusSplit, -1, bus});
  ASSERT_FALSE(opened.empty());
  EXPECT_TRUE(std::is_sorted(opened.begin(), opened.end()));
  for (const std::size_t bi : opened) {
    EXPECT_EQ(live.status(bi), BranchStatus::kBreakerOpen);
  }
  // A fault on one of the opened lines survives the merge.
  live.apply({TopologyEventKind::kLineOutage,
              static_cast<std::int32_t>(opened.front()), -1});
  const std::vector<std::size_t> closed =
      live.apply({TopologyEventKind::kBusMerge, -1, bus});
  EXPECT_EQ(closed.size(), opened.size() - 1);
  EXPECT_EQ(live.status(opened.front()), BranchStatus::kFaultOutage);
}

TEST(FindIslandsTest, MatchesBruteForceUnderRandomSwitching) {
  Network net = ieee118();
  LiveTopology live(net);
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 12; ++k) {
      const auto b = static_cast<std::int32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(net.num_branches()) - 1));
      live.apply({rng.bernoulli(0.6) ? TopologyEventKind::kLineOutage
                                     : TopologyEventKind::kLineRestore,
                  b, -1});
    }
    const IslandReport report = find_islands(net);
    const std::vector<int> brute = brute_force_islands(net);
    // Same partition of buses: two buses share an island iff the brute
    // force gave them the same label.
    std::set<int> distinct(brute.begin(), brute.end());
    EXPECT_EQ(static_cast<std::size_t>(report.num_islands), distinct.size());
    for (std::size_t i = 0; i < brute.size(); ++i) {
      for (std::size_t j = i + 1; j < brute.size(); ++j) {
        EXPECT_EQ(report.island_of_bus[i] == report.island_of_bus[j],
                  brute[i] == brute[j]);
      }
    }
  }
}

TEST(FindIslandsTest, ReferenceAndEnergizationRules) {
  Network net = ieee118();
  const IslandReport base = find_islands(net);
  ASSERT_EQ(base.num_islands, 1);
  // The single connected island holds the slack bus and is energized; its
  // reference is the slack.
  EXPECT_EQ(base.energized[0], 1);
  EXPECT_EQ(net.bus(base.reference_bus[0]).type, BusType::kSlack);

  // Isolate a PQ bus: its island must be de-energized, referenced at its
  // lowest (only) member.
  BusIndex pq = -1;
  for (BusIndex i = 0; i < net.num_buses(); ++i) {
    if (net.bus(i).type == BusType::kPQ) {
      pq = i;
      break;
    }
  }
  ASSERT_GE(pq, 0);
  LiveTopology live(net);
  live.apply({TopologyEventKind::kBusSplit, -1, pq});
  const IslandReport split = find_islands(net);
  ASSERT_GE(split.num_islands, 2);
  const auto island = static_cast<std::size_t>(
      split.island_of_bus[static_cast<std::size_t>(pq)]);
  EXPECT_EQ(split.energized[island], 0);
  EXPECT_FALSE(split.bus_energized(pq));
  EXPECT_EQ(split.reference_bus[island], pq);
}

TEST(MaskMeasurementsTest, ActivePlusMaskedAccountsForEverything) {
  Network net = ieee118();
  MeasurementPlan plan;
  plan.pmu_buses = {0};
  MeasurementGenerator gen(net, plan);
  GridState flat(net.num_buses());
  for (auto& v : flat.vm) v = 1.0;
  Rng rng(3);
  const MeasurementSet set = gen.generate(flat, rng, 0.0);

  LiveTopology live(net);
  live.apply({TopologyEventKind::kLineOutage, 11, -1});
  live.apply({TopologyEventKind::kLineOutage, 12, -1});
  // Isolate a PQ bus to create a dead island.
  BusIndex pq = -1;
  for (BusIndex i = 0; i < net.num_buses(); ++i) {
    if (net.bus(i).type == BusType::kPQ) {
      pq = i;
      break;
    }
  }
  live.apply({TopologyEventKind::kBusSplit, -1, pq});
  const IslandReport islands = find_islands(net);

  const MaskedMeasurements masked = mask_measurements(net, islands, set);
  EXPECT_EQ(masked.active.items.size() + masked.total_masked(),
            set.items.size());
  EXPECT_GT(masked.masked_out_of_service, 0u);
  EXPECT_GT(masked.masked_deenergized, 0u);
  // Nothing active may reference an open branch or a dead bus: masked
  // telemetry must never enter the residual.
  for (const Measurement& m : masked.active.items) {
    if (m.type == MeasType::kPFlow || m.type == MeasType::kQFlow) {
      const Branch& br = net.branch(static_cast<std::size_t>(m.branch));
      EXPECT_TRUE(br.in_service);
      EXPECT_TRUE(islands.bus_energized(br.from));
      EXPECT_TRUE(islands.bus_energized(br.to));
    } else {
      EXPECT_TRUE(islands.bus_energized(m.bus));
    }
  }
}

TEST(AnchorMeasurementsTest, DeadBusesPinnedAndLiveComponentsAnchored) {
  Network net = ieee118();
  LiveTopology live(net);
  BusIndex pq = -1;
  for (BusIndex i = 0; i < net.num_buses(); ++i) {
    if (net.bus(i).type == BusType::kPQ) {
      pq = i;
      break;
    }
  }
  live.apply({TopologyEventKind::kBusSplit, -1, pq});
  const IslandReport islands = find_islands(net);

  MeasurementSet set;  // no angle coverage anywhere
  const std::vector<int> one_group(static_cast<std::size_t>(net.num_buses()),
                                   0);
  GridState prior(net.num_buses());
  for (std::size_t i = 0; i < prior.theta.size(); ++i) {
    prior.theta[i] = 0.01 * static_cast<double>(i);
  }
  const std::size_t appended =
      append_anchor_measurements(net, islands, one_group, prior, set);
  EXPECT_EQ(appended, set.items.size());

  // The dead bus gets the |V| = 0 / θ = 0 pins.
  std::size_t dead_pins = 0;
  bool live_anchor_at_reference = false;
  for (const Measurement& m : set.items) {
    if (m.bus == pq) {
      EXPECT_EQ(m.value, 0.0);
      EXPECT_EQ(m.sigma, kAnchorSigma);
      ++dead_pins;
    } else if (m.type == MeasType::kVAngle) {
      // The big island holds its reference in this single-group split, so
      // the anchor must sit there with the exact truth value 0.
      const auto island = static_cast<std::size_t>(
          islands.island_of_bus[static_cast<std::size_t>(m.bus)]);
      EXPECT_EQ(m.bus, islands.reference_bus[island]);
      EXPECT_EQ(m.value, 0.0);
      live_anchor_at_reference = true;
    }
  }
  EXPECT_EQ(dead_pins, 2u);
  EXPECT_TRUE(live_anchor_at_reference);

  // Determinism: a second pass over the same inputs appends the same rows.
  MeasurementSet again;
  append_anchor_measurements(net, islands, one_group, prior, again);
  ASSERT_EQ(again.items.size(), set.items.size());
  for (std::size_t i = 0; i < set.items.size(); ++i) {
    EXPECT_EQ(again.items[i].bus, set.items[i].bus);
    EXPECT_EQ(again.items[i].value, set.items[i].value);
  }
}

TEST(IslandDcPowerFlowTest, MatchesPlainDcWhenConnectedAndZeroesDeadIslands) {
  Network net = ieee118();
  const IslandReport connected = find_islands(net);
  const std::vector<double> island_dc =
      solve_dc_power_flow_islands(net, connected);
  const std::vector<double> plain = solve_dc_power_flow(net);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_NEAR(island_dc[i], plain[i], 1e-9);
  }

  LiveTopology live(net);
  BusIndex pq = -1;
  for (BusIndex i = 0; i < net.num_buses(); ++i) {
    if (net.bus(i).type == BusType::kPQ) {
      pq = i;
      break;
    }
  }
  live.apply({TopologyEventKind::kBusSplit, -1, pq});
  const IslandReport split = find_islands(net);
  const std::vector<double> dc = solve_dc_power_flow_islands(net, split);
  EXPECT_EQ(dc[static_cast<std::size_t>(pq)], 0.0);
}

TEST(IslandDcPowerFlowTest, PlanSlotReanalyzesOnlyWhenSwitchingChangesBprime) {
  Network net = ieee118();
  BprimeFactor slot;
  const IslandReport connected = find_islands(net);
  const std::vector<double> first =
      solve_dc_power_flow_islands(net, connected, slot);
  ASSERT_NE(slot.plan(), nullptr);
  const auto analyzed = slot.plan();
  (void)solve_dc_power_flow_islands(net, connected, slot);
  EXPECT_EQ(slot.plan(), analyzed);
  EXPECT_EQ(slot.factorizations(), 1u);

  // Isolating a PQ bus drops its row from the reduced B′: a new plan, whose
  // solve matches a slot-less one.
  LiveTopology live(net);
  BusIndex pq = -1;
  for (BusIndex i = 0; i < net.num_buses() && pq < 0; ++i) {
    if (net.bus(i).type == BusType::kPQ) pq = i;
  }
  live.apply({TopologyEventKind::kBusSplit, -1, pq});
  const IslandReport split = find_islands(net);
  const std::vector<double> cached =
      solve_dc_power_flow_islands(net, split, slot);
  EXPECT_NE(slot.plan(), analyzed);
  EXPECT_EQ(slot.factorizations(), 2u);
  EXPECT_EQ(cached, solve_dc_power_flow_islands(net, split));
  EXPECT_NE(cached, first);
}

}  // namespace
}  // namespace gridse::grid
