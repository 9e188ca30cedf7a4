// Property sweep: the full DSE pipeline across random interconnections,
// seeds and cluster counts — the invariants that must hold for ANY valid
// decomposition, not just the paper's case study.
#include <gtest/gtest.h>


#include "analysis/debug_sync.hpp"
#include "core/dse_driver.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "mapping/mapper.hpp"
#include "runtime/inproc_comm.hpp"
#include "util/rng.hpp"

namespace gridse::core {
namespace {

struct SweepCase {
  int subsystems;
  int buses_per;
  int clusters;
  std::uint64_t seed;
};

class DseSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DseSweep, EndToEndInvariantsHold) {
  const SweepCase sc = GetParam();
  const io::SyntheticSpec spec =
      io::make_ring_spec(sc.subsystems, sc.buses_per, sc.subsystems / 4,
                         sc.seed);
  const io::GeneratedCase generated = io::generate_synthetic(spec);
  decomp::Decomposition d =
      decomp::decompose(generated.kase.network, generated.subsystem_of_bus);
  decomp::analyze_sensitivity(generated.kase.network, d, {});

  const grid::PowerFlowResult pf =
      grid::solve_power_flow(generated.kase.network);
  ASSERT_TRUE(pf.converged);

  grid::MeasurementPlan plan;
  for (const decomp::Subsystem& s : d.subsystems) {
    plan.pmu_buses.push_back(s.buses.front());
  }
  grid::MeasurementGenerator gen(generated.kase.network, plan);
  Rng rng(sc.seed * 7 + 1);
  const grid::MeasurementSet meas = gen.generate(pf.state, rng);

  // Mapping invariants.
  mapping::MappingOptions mopts;
  mopts.num_clusters = sc.clusters;
  mopts.seed = sc.seed;
  const mapping::ClusterMapper mapper(d, mopts);
  const mapping::MappingResult map1 = mapper.map_before_step1(0.0);
  const mapping::MappingResult map2 =
      mapper.map_before_step2(0.0, map1.partition.assignment);
  EXPECT_TRUE(graph::is_valid_partition(map1.weighted_graph,
                                        map1.partition.assignment,
                                        sc.clusters));
  EXPECT_TRUE(graph::is_valid_partition(map2.weighted_graph,
                                        map2.partition.assignment,
                                        sc.clusters));
  EXPECT_LE(map1.partition.load_imbalance, 1.6);

  // DSE invariants: convergence, identical state on all ranks, accuracy.
  DseDriver driver(generated.kase.network, d, {});
  runtime::InprocWorld world(sc.clusters);
  analysis::Mutex mutex{"dse_sweep_test::mutex"};
  std::vector<DseResult> results(static_cast<std::size_t>(sc.clusters));
  world.run([&](runtime::Communicator& c) {
    DseResult r = driver.run(c, meas, map1.partition.assignment,
                             map2.partition.assignment);
    analysis::LockGuard lock(mutex);
    results[static_cast<std::size_t>(c.rank())] = std::move(r);
  });
  for (const DseResult& r : results) {
    EXPECT_TRUE(r.all_converged);
    EXPECT_LT(grid::max_vm_error(r.state, results[0].state), 1e-12);
    EXPECT_LT(grid::max_vm_error(r.state, pf.state), 0.03);
    EXPECT_LT(grid::max_angle_error(r.state, pf.state), 0.05);
  }
  // Each rank traces what it hosted in either step: every subsystem's
  // Step 1 and Step 2 are traced once each, on the rank that ran them.
  const auto n = static_cast<std::size_t>(sc.subsystems);
  std::vector<int> step1_traced(n, 0);
  std::vector<int> step2_traced(n, 0);
  for (std::size_t rank = 0; rank < results.size(); ++rank) {
    for (const SubsystemTrace& t : results[rank].traces) {
      const auto s = static_cast<std::size_t>(t.subsystem);
      if (t.step1_rank == static_cast<int>(rank)) {
        ++step1_traced[s];
        EXPECT_GT(t.step1.gauss_newton_iterations, 0) << s;
      }
      if (t.step2_rank == static_cast<int>(rank)) {
        ++step2_traced[s];
        EXPECT_GT(t.step2.gauss_newton_iterations, 0) << s;
      }
    }
  }
  EXPECT_EQ(step1_traced, std::vector<int>(n, 1));
  EXPECT_EQ(step2_traced, std::vector<int>(n, 1));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, DseSweep,
    ::testing::Values(SweepCase{6, 10, 2, 1}, SweepCase{6, 10, 3, 2},
                      SweepCase{8, 8, 4, 3}, SweepCase{12, 14, 3, 4},
                      SweepCase{12, 14, 6, 5}, SweepCase{16, 9, 4, 6}),
    [](const auto& param_info) {
      return "m" + std::to_string(param_info.param.subsystems) + "_b" +
             std::to_string(param_info.param.buses_per) + "_k" +
             std::to_string(param_info.param.clusters) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace gridse::core
