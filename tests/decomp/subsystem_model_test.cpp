#include "decomp/subsystem_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "decomp/bus_partition.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"

namespace gridse::decomp {
namespace {

void expect_index_roundtrip(const SubsystemModel& m) {
  for (grid::BusIndex l = 0; l < m.network.num_buses(); ++l) {
    const grid::BusIndex g = m.global_bus[static_cast<std::size_t>(l)];
    EXPECT_EQ(m.local_of_global.find(g), l);
  }
}

/// The tie lines of subsystem s, from the decomposition's tie-line list.
std::vector<std::size_t> tie_branches_of(const grid::Network& net,
                                         const Decomposition& d, int s) {
  std::vector<std::size_t> out;
  for (const std::size_t bi : d.tie_lines) {
    const grid::Branch& br = net.branch(bi);
    if (d.subsystem_of_bus[static_cast<std::size_t>(br.from)] == s ||
        d.subsystem_of_bus[static_cast<std::size_t>(br.to)] == s) {
      out.push_back(bi);
    }
  }
  return out;
}

class SubsystemModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    generated_ = io::ieee118_dse();
    d_ = decompose(generated_.kase.network, generated_.subsystem_of_bus);
    analyze_sensitivity(generated_.kase.network, d_, {});
    pf_ = grid::solve_power_flow(generated_.kase.network);
    ASSERT_TRUE(pf_.converged);
    grid::MeasurementPlan plan;
    for (const Subsystem& s : d_.subsystems) {
      plan.pmu_buses.push_back(s.buses.front());
    }
    gen_ = std::make_unique<grid::MeasurementGenerator>(generated_.kase.network,
                                                        plan);
    global_set_ = gen_->generate_noiseless(pf_.state);
  }

  io::GeneratedCase generated_;
  Decomposition d_;
  grid::PowerFlowResult pf_;
  std::unique_ptr<grid::MeasurementGenerator> gen_;
  grid::MeasurementSet global_set_;
};

TEST_F(SubsystemModelTest, LocalModelCoversExactlyTheSubsystem) {
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    const SubsystemModel m = extract_local(generated_.kase.network, d_, s);
    const Subsystem& sub = d_.subsystems[static_cast<std::size_t>(s)];
    EXPECT_EQ(m.network.num_buses(),
              static_cast<grid::BusIndex>(sub.buses.size()));
    EXPECT_EQ(m.network.num_branches(), sub.internal_branches.size());
    for (const bool own : m.own) {
      EXPECT_TRUE(own);
    }
    expect_index_roundtrip(m);
  }
}

TEST_F(SubsystemModelTest, ExtendedModelAddsNeighborBusesAndTies) {
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    const SubsystemModel local = extract_local(generated_.kase.network, d_, s);
    const SubsystemModel ext = extract_extended(generated_.kase.network, d_, s);
    EXPECT_GT(ext.network.num_buses(), local.network.num_buses());
    EXPECT_GT(ext.network.num_branches(), local.network.num_branches());
    // every tie line of s must be present in the extended model
    for (const std::size_t tie :
         tie_branches_of(generated_.kase.network, d_, s)) {
      EXPECT_TRUE(ext.local_branch_of_global.contains(
          static_cast<std::int32_t>(tie)))
          << "subsystem " << s << " tie " << tie;
    }
  }
}

TEST_F(SubsystemModelTest, FilterKeepsOnlyEvaluableMeasurements) {
  const SubsystemModel m = extract_local(generated_.kase.network, d_, 2);
  const grid::MeasurementSet local = m.filter(global_set_);
  EXPECT_GT(local.size(), 0u);
  grid::validate_measurements(m.network, local);
  // no measurement may reference a bus outside the model
  for (const grid::Measurement& meas : local.items) {
    EXPECT_LT(meas.bus, m.network.num_buses());
  }
}

TEST_F(SubsystemModelTest, FilteredInjectionValuesMatchLocalModel) {
  // The h(x) of a filtered injection on the local network must equal the
  // global measurement value (that is what remap() guarantees).
  const SubsystemModel m = extract_local(generated_.kase.network, d_, 4);
  const grid::MeasurementSet local = m.filter(global_set_);
  const grid::GridState local_state = m.gather_state(pf_.state);
  const grid::StateIndex idx(m.network.num_buses(), 0);
  const grid::MeasurementModel model(m.network, idx);
  const auto h = model.evaluate(local, local_state);
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_NEAR(h[i], local.items[i].value, 1e-9)
        << grid::meas_type_name(local.items[i].type) << " #" << i;
  }
}

TEST_F(SubsystemModelTest, BoundaryInjectionsExcludedFromLocalModel) {
  const int s = 0;
  const SubsystemModel m = extract_local(generated_.kase.network, d_, s);
  const grid::MeasurementSet local = m.filter(global_set_);
  const Subsystem& sub = d_.subsystems[static_cast<std::size_t>(s)];
  const std::set<grid::BusIndex> boundary(sub.boundary_buses.begin(),
                                          sub.boundary_buses.end());
  for (const grid::Measurement& meas : local.items) {
    if (meas.type == grid::MeasType::kPInjection ||
        meas.type == grid::MeasType::kQInjection) {
      const grid::BusIndex global = m.global_bus[static_cast<std::size_t>(meas.bus)];
      EXPECT_TRUE(boundary.count(global) == 0)
          << "boundary injection leaked into local set";
    }
  }
}

TEST_F(SubsystemModelTest, ExtendedModelIncludesOwnBoundaryInjections) {
  const int s = 0;
  const SubsystemModel ext = extract_extended(generated_.kase.network, d_, s);
  const grid::MeasurementSet set = ext.filter(global_set_);
  const Subsystem& sub = d_.subsystems[static_cast<std::size_t>(s)];
  int boundary_injections = 0;
  for (const grid::Measurement& meas : set.items) {
    if (meas.type != grid::MeasType::kPInjection) continue;
    const grid::BusIndex global = ext.global_bus[static_cast<std::size_t>(meas.bus)];
    if (std::find(sub.boundary_buses.begin(), sub.boundary_buses.end(),
                  global) != sub.boundary_buses.end()) {
      ++boundary_injections;
    }
  }
  EXPECT_GT(boundary_injections, 0);
}

void expect_same_items(const grid::MeasurementSet& a,
                       const grid::MeasurementSet& b, const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const grid::Measurement& x = a.items[i];
    const grid::Measurement& y = b.items[i];
    EXPECT_TRUE(x.type == y.type && x.bus == y.bus && x.branch == y.branch &&
                x.at_from_side == y.at_from_side && x.value == y.value &&
                x.sigma == y.sigma)
        << tag << " item " << i;
  }
}

TEST_F(SubsystemModelTest, RouteListsEveryMeasurementUnderItsBusOwner) {
  const MeasurementRoute route =
      route_measurements(d_, generated_.kase.network, global_set_);
  std::vector<int> seen(global_set_.size(), 0);
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    const auto list = route.of(s);
    for (std::size_t k = 0; k < list.size(); ++k) {
      const std::uint32_t i = list[k];
      if (k > 0) {
        EXPECT_LT(list[k - 1], i);
      }
      ++seen[i];
      const grid::BusIndex bus = global_set_.items[i].bus;
      EXPECT_EQ(d_.subsystem_of_bus[static_cast<std::size_t>(bus)], s);
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST_F(SubsystemModelTest, RoutingRejectsABusOutsideTheNetwork) {
  grid::MeasurementSet bad = global_set_;
  bad.items.push_back({grid::MeasType::kVMag,
                       generated_.kase.network.num_buses(), -1, true, 1.0,
                       0.01});
  EXPECT_THROW(route_measurements(d_, generated_.kase.network, bad),
               InvalidInput);
}

TEST(MeasurementRoute, RoutedFiltersEqualWholeSetFiltersOnTenThousandBusSplit) {
  const io::GeneratedCase gc = io::interconnection10k();
  const grid::Network& net = gc.kase.network;
  const Decomposition d = decompose(net, gc.subsystem_of_bus);
  const grid::MeasurementGenerator gen(net, {});
  const grid::MeasurementSet set =
      gen.generate_noiseless(grid::GridState(net.num_buses()));
  const MeasurementRoute route = route_measurements(d, net, set);
  ASSERT_EQ(route.indices.size(), set.size());
  for (int s = 0; s < d.num_subsystems(); ++s) {
    const SubsystemModel local = extract_local(net, d, s);
    const SubsystemModel ext = extract_extended(net, d, s);
    expect_same_items(local.filter(set), local.filter(set, route.of(s)),
                      "local " + std::to_string(s));
    expect_same_items(ext.filter(set), ext.filter(set, route.of(s)),
                      "extended " + std::to_string(s));
  }
}

TEST_F(SubsystemModelTest, GatherReadsTheModelBuses) {
  const SubsystemModel m = extract_extended(generated_.kase.network, d_, 3);
  const grid::GridState local = m.gather_state(pf_.state);
  ASSERT_EQ(local.num_buses(), m.network.num_buses());
  for (grid::BusIndex l = 0; l < m.network.num_buses(); ++l) {
    const auto g = static_cast<std::size_t>(
        m.global_bus[static_cast<std::size_t>(l)]);
    EXPECT_EQ(local.theta[static_cast<std::size_t>(l)], pf_.state.theta[g]);
    EXPECT_EQ(local.vm[static_cast<std::size_t>(l)], pf_.state.vm[g]);
  }
}

/// Every branch of subsystem s's local and extended models has an end that
/// s owns, the extended model holds exactly s's internal branches and tie
/// lines, and its remote buses are exactly the tie lines' far ends.
void expect_models_end_at_own_buses(const grid::Network& net,
                                    const Decomposition& d,
                                    const std::string& tag) {
  for (int s = 0; s < d.num_subsystems(); ++s) {
    const Subsystem& sub = d.subsystems[static_cast<std::size_t>(s)];
    const auto owned = [&](const SubsystemModel& m, grid::BusIndex l) {
      const auto g = m.global_bus[static_cast<std::size_t>(l)];
      return d.subsystem_of_bus[static_cast<std::size_t>(g)] == s;
    };
    const SubsystemModel local = extract_local(net, d, s);
    const SubsystemModel ext = extract_extended(net, d, s);
    for (const SubsystemModel* m : {&local, &ext}) {
      for (const grid::Branch& br : m->network.branches()) {
        EXPECT_TRUE(owned(*m, br.from) || owned(*m, br.to))
            << tag << " subsystem " << s;
      }
    }
    const std::vector<std::size_t> ties = tie_branches_of(net, d, s);
    EXPECT_EQ(ext.network.num_branches(),
              sub.internal_branches.size() + ties.size())
        << tag << " subsystem " << s;

    std::set<grid::BusIndex> far_ends;
    for (const std::size_t tie : ties) {
      const grid::Branch& br = net.branch(tie);
      far_ends.insert(
          d.subsystem_of_bus[static_cast<std::size_t>(br.from)] == s
              ? br.to
              : br.from);
    }
    std::set<grid::BusIndex> remote;
    for (grid::BusIndex l = 0; l < ext.network.num_buses(); ++l) {
      if (!owned(ext, l)) {
        remote.insert(ext.global_bus[static_cast<std::size_t>(l)]);
      }
    }
    EXPECT_EQ(remote, far_ends) << tag << " subsystem " << s;
  }
}

/// The tie-end table read from both sides: what s lists as its own ends
/// toward t is what t lists as its far ends toward s, and t's far ends,
/// over all its neighbours, are its extended model's remote buses, each
/// once.
void expect_tie_table_contract(const grid::Network& net, const Decomposition& d,
                               const std::string& tag) {
  for (const Subsystem& sub : d.subsystems) {
    std::vector<grid::BusIndex> far_ends;
    int last_neighbor = -1;
    for (const TieEnds& tie : sub.ties) {
      EXPECT_GT(tie.neighbor, last_neighbor) << tag << " subsystem " << sub.id;
      last_neighbor = tie.neighbor;
      const Subsystem& other =
          d.subsystems[static_cast<std::size_t>(tie.neighbor)];
      EXPECT_EQ(tie.own, other.ties_to(sub.id).far)
          << tag << " " << sub.id << " -> " << tie.neighbor;
      EXPECT_TRUE(std::includes(sub.boundary_buses.begin(),
                                sub.boundary_buses.end(), tie.own.begin(),
                                tie.own.end()))
          << tag << " subsystem " << sub.id;
      far_ends.insert(far_ends.end(), tie.far.begin(), tie.far.end());
    }
    std::sort(far_ends.begin(), far_ends.end());
    const SubsystemModel ext = extract_extended(net, d, sub.id);
    std::vector<grid::BusIndex> remote;
    for (grid::BusIndex l = 0; l < ext.network.num_buses(); ++l) {
      if (!ext.own[static_cast<std::size_t>(l)]) {
        remote.push_back(ext.global_bus[static_cast<std::size_t>(l)]);
      }
    }
    // Sorted on both sides, so equality also rules out a repeated bus.
    std::sort(remote.begin(), remote.end());
    EXPECT_EQ(std::adjacent_find(remote.begin(), remote.end()), remote.end())
        << tag << " subsystem " << sub.id;
    EXPECT_EQ(far_ends, remote) << tag << " subsystem " << sub.id;
  }
}

TEST_F(SubsystemModelTest, TieTableAgreesFromBothEndsOnThePaperSplit) {
  expect_tie_table_contract(generated_.kase.network, d_, "ieee118");
}

TEST_F(SubsystemModelTest, ModelsEndAtOwnBusesOnThePaperSplit) {
  expect_models_end_at_own_buses(generated_.kase.network, d_, "ieee118");
}

TEST(SubsystemModel, ModelsEndAtOwnBusesOnThe10kBenchSplit) {
  // The split the 10k frame benchmark solves: the convergence-aware bus
  // partitioner at seed 7, with sensitive buses analyzed as DseSystem does.
  io::GeneratedCase gc = io::interconnection10k();
  graph::PartitionOptions popts;
  popts.k = 32;
  popts.seed = 7;
  popts.objective = graph::PartitionObjective::kConvergenceAware;
  gc.subsystem_of_bus = partition_buses(gc.kase.network, popts);
  Decomposition d = decompose(gc.kase.network, gc.subsystem_of_bus);
  analyze_sensitivity(gc.kase.network, d, {});
  expect_models_end_at_own_buses(gc.kase.network, d, "10k");
}

TEST(SubsystemModel, TieTableAgreesFromBothEndsOnThe10kBenchSplit) {
  io::GeneratedCase gc = io::interconnection10k();
  graph::PartitionOptions popts;
  popts.k = 32;
  popts.seed = 7;
  popts.objective = graph::PartitionObjective::kConvergenceAware;
  gc.subsystem_of_bus = partition_buses(gc.kase.network, popts);
  const Decomposition d = decompose(gc.kase.network, gc.subsystem_of_bus);
  expect_tie_table_contract(gc.kase.network, d, "10k");
}

}  // namespace
}  // namespace gridse::decomp
