#include "decomp/decomposition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "io/synthetic.hpp"
#include "util/error.hpp"

namespace gridse::decomp {
namespace {

class DecompositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    generated_ = io::ieee118_dse();
    d_ = decompose(generated_.kase.network, generated_.subsystem_of_bus);
  }
  io::GeneratedCase generated_;
  Decomposition d_;
};

TEST_F(DecompositionTest, SubsystemsPartitionTheBuses) {
  EXPECT_EQ(d_.num_subsystems(), 9);
  std::set<grid::BusIndex> seen;
  std::size_t total = 0;
  for (const Subsystem& s : d_.subsystems) {
    total += s.buses.size();
    seen.insert(s.buses.begin(), s.buses.end());
  }
  EXPECT_EQ(total, 118u);
  EXPECT_EQ(seen.size(), 118u);
}

TEST_F(DecompositionTest, TieLinesCrossSubsystems) {
  const auto lists = [](const std::vector<grid::BusIndex>& v,
                        grid::BusIndex b) {
    return std::binary_search(v.begin(), v.end(), b);
  };
  for (const std::size_t bi : d_.tie_lines) {
    const grid::Branch& br = generated_.kase.network.branch(bi);
    const int sf = d_.subsystem_of_bus[static_cast<std::size_t>(br.from)];
    const int st = d_.subsystem_of_bus[static_cast<std::size_t>(br.to)];
    ASSERT_NE(sf, st);
    // Both sides' tie-end tables hold the line's two ends.
    const TieEnds& from_side =
        d_.subsystems[static_cast<std::size_t>(sf)].ties_to(st);
    const TieEnds& to_side =
        d_.subsystems[static_cast<std::size_t>(st)].ties_to(sf);
    EXPECT_TRUE(lists(from_side.own, br.from) && lists(from_side.far, br.to))
        << "branch " << bi;
    EXPECT_TRUE(lists(to_side.own, br.to) && lists(to_side.far, br.from))
        << "branch " << bi;
  }
}

TEST_F(DecompositionTest, InternalBranchesStayInside) {
  for (const Subsystem& s : d_.subsystems) {
    for (const std::size_t bi : s.internal_branches) {
      const grid::Branch& br = generated_.kase.network.branch(bi);
      EXPECT_EQ(d_.subsystem_of_bus[static_cast<std::size_t>(br.from)], s.id);
      EXPECT_EQ(d_.subsystem_of_bus[static_cast<std::size_t>(br.to)], s.id);
    }
  }
}

TEST_F(DecompositionTest, BoundaryBusesTouchTies) {
  for (const Subsystem& s : d_.subsystems) {
    EXPECT_FALSE(s.boundary_buses.empty());
    for (const grid::BusIndex b : s.boundary_buses) {
      bool touches_tie = false;
      for (const std::size_t bi :
           generated_.kase.network.branches_at(b)) {
        const grid::Branch& br = generated_.kase.network.branch(bi);
        const int sf = d_.subsystem_of_bus[static_cast<std::size_t>(br.from)];
        const int st = d_.subsystem_of_bus[static_cast<std::size_t>(br.to)];
        touches_tie |= sf != st;
      }
      EXPECT_TRUE(touches_tie) << "bus " << b;
    }
  }
}

TEST_F(DecompositionTest, NeighborPairsMatchFigure3) {
  const auto pairs = d_.neighbor_pairs();
  std::set<std::pair<int, int>> expected;
  for (const auto& [a, b] : generated_.decomposition_edges) {
    expected.insert(std::minmax(a, b));
  }
  using PairSet = std::set<std::pair<int, int>>;
  EXPECT_EQ(PairSet(pairs.begin(), pairs.end()), expected);
}

TEST_F(DecompositionTest, NeighborsOfIsSymmetric) {
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    for (const int t : d_.neighbors_of(s)) {
      const auto back = d_.neighbors_of(t);
      EXPECT_NE(std::find(back.begin(), back.end(), s), back.end());
    }
  }
}

TEST_F(DecompositionTest, DecompositionGraphShape) {
  const graph::WeightedGraph g = d_.decomposition_graph();
  EXPECT_EQ(g.num_vertices(), 9);
  EXPECT_EQ(g.num_edges(), 12u);
  // vertex weights are bus counts
  EXPECT_DOUBLE_EQ(g.vertex_weight(0), 14.0);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 118.0);
}

TEST(Decompose, RejectsBadMembership) {
  const auto g = io::ieee118_dse();
  std::vector<int> wrong_size(10, 0);
  EXPECT_THROW(decompose(g.kase.network, wrong_size), InvalidInput);

  std::vector<int> negative(118, 0);
  negative[5] = -1;
  EXPECT_THROW(decompose(g.kase.network, negative), InvalidInput);

  std::vector<int> gap(118, 0);
  gap[0] = 2;  // subsystem 1 empty
  EXPECT_THROW(decompose(g.kase.network, gap), InvalidInput);
}

TEST(Decompose, RejectsInternallyDisconnectedSubsystem) {
  // Two buses of subsystem 0 connected only through subsystem 1.
  grid::Network n;
  for (int i = 1; i <= 3; ++i) {
    grid::Bus b;
    b.external_id = i;
    b.type = i == 1 ? grid::BusType::kSlack : grid::BusType::kPQ;
    n.add_bus(b);
  }
  grid::Branch br;
  br.x = 0.1;
  br.from = 0;
  br.to = 1;
  n.add_branch(br);
  br.from = 1;
  br.to = 2;
  n.add_branch(br);
  const std::vector<int> membership{0, 1, 0};
  EXPECT_THROW(decompose(n, membership), InvalidInput);
}

TEST(Decompose, SingleSubsystemHasNoTies) {
  const auto g = io::ieee118_dse();
  const std::vector<int> all_zero(118, 0);
  const Decomposition d = decompose(g.kase.network, all_zero);
  EXPECT_EQ(d.num_subsystems(), 1);
  EXPECT_TRUE(d.tie_lines.empty());
  EXPECT_TRUE(d.subsystems[0].boundary_buses.empty());
  EXPECT_TRUE(d.neighbor_pairs().empty());
}

}  // namespace
}  // namespace gridse::decomp
