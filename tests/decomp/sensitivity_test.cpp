#include "decomp/sensitivity.hpp"

#include <gtest/gtest.h>

#include <set>

#include "io/synthetic.hpp"
#include "util/error.hpp"

namespace gridse::decomp {
namespace {

class SensitivityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    generated_ = io::ieee118_dse();
    d_ = decompose(generated_.kase.network, generated_.subsystem_of_bus);
  }
  io::GeneratedCase generated_;
  Decomposition d_;
};

TEST_F(SensitivityTest, SensitiveBusesAreInternalAndAdjacentToBoundary) {
  analyze_sensitivity(generated_.kase.network, d_, {});
  for (const Subsystem& s : d_.subsystems) {
    const std::set<grid::BusIndex> boundary(s.boundary_buses.begin(),
                                            s.boundary_buses.end());
    const std::set<grid::BusIndex> members(s.buses.begin(), s.buses.end());
    for (const grid::BusIndex b : s.sensitive_internal) {
      EXPECT_TRUE(members.count(b) > 0);
      EXPECT_TRUE(boundary.count(b) == 0);
      // must be adjacent to a boundary bus via an internal branch (hops=1)
      bool adjacent = false;
      for (const std::size_t bi : generated_.kase.network.branches_at(b)) {
        const grid::Branch& br = generated_.kase.network.branch(bi);
        const grid::BusIndex other = br.from == b ? br.to : br.from;
        adjacent |= boundary.count(other) > 0;
      }
      EXPECT_TRUE(adjacent) << "bus " << b;
    }
  }
}

TEST_F(SensitivityTest, ZeroHopsMeansNoSensitiveBuses) {
  SensitivityOptions opts;
  opts.hops = 0;
  analyze_sensitivity(generated_.kase.network, d_, opts);
  for (const Subsystem& s : d_.subsystems) {
    EXPECT_TRUE(s.sensitive_internal.empty());
  }
}

TEST_F(SensitivityTest, MoreHopsNeverShrinkTheSet) {
  SensitivityOptions one;
  one.hops = 1;
  analyze_sensitivity(generated_.kase.network, d_, one);
  std::vector<std::size_t> count1;
  for (const Subsystem& s : d_.subsystems) {
    count1.push_back(s.sensitive_internal.size());
  }
  SensitivityOptions two;
  two.hops = 2;
  analyze_sensitivity(generated_.kase.network, d_, two);
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    EXPECT_GE(d_.subsystems[static_cast<std::size_t>(s)].sensitive_internal.size(),
              count1[static_cast<std::size_t>(s)]);
  }
}

TEST_F(SensitivityTest, GsCountsBoundaryPlusSensitive) {
  analyze_sensitivity(generated_.kase.network, d_, {});
  for (const Subsystem& s : d_.subsystems) {
    EXPECT_EQ(s.gs(), static_cast<int>(s.boundary_buses.size() +
                                       s.sensitive_internal.size()));
    EXPECT_LE(s.gs(), static_cast<int>(s.buses.size()));
  }
}

TEST_F(SensitivityTest, RerunIsIdempotent) {
  analyze_sensitivity(generated_.kase.network, d_, {});
  std::vector<std::vector<grid::BusIndex>> first;
  for (const Subsystem& s : d_.subsystems) {
    first.push_back(s.sensitive_internal);
  }
  analyze_sensitivity(generated_.kase.network, d_, {});
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    EXPECT_EQ(d_.subsystems[static_cast<std::size_t>(s)].sensitive_internal,
              first[static_cast<std::size_t>(s)]);
  }
}

TEST_F(SensitivityTest, RejectsBadOptions) {
  SensitivityOptions bad;
  bad.hops = -1;
  EXPECT_THROW(analyze_sensitivity(generated_.kase.network, d_, bad),
               InternalError);
}

}  // namespace
}  // namespace gridse::decomp
