// End-to-end scale tier: one full DSE cycle on the 30k-bus hierarchical
// interconnection with DC-linearized truth. This is the largest case run
// end to end under ctest; it carries a non-default timeout and the
// "scale" label so CI lanes can include or exclude it explicitly
// (ctest -L scale / ctest -LE scale).
#include <gtest/gtest.h>

#include "analysis/tsan.hpp"
#include "core/architecture.hpp"
#include "decomp/bus_partition.hpp"
#include "io/synthetic.hpp"

namespace gridse::core {
namespace {

TEST(Scale30kTest, FullDcTruthCycleConverges) {
  if (GRIDSE_TSAN_ENABLED) {
    GTEST_SKIP() << "30k tier is too slow under tsan instrumentation";
  }
  io::GeneratedCase gc = io::interconnection30k();
  graph::PartitionOptions popts;
  popts.k = 48;
  popts.seed = 7;
  popts.objective = graph::PartitionObjective::kConvergenceAware;
  gc.subsystem_of_bus = decomp::partition_buses(gc.kase.network, popts);
  // The hierarchical generator targets 30k nominally; the exact count
  // depends on the zone recursion.
  ASSERT_GT(gc.kase.network.num_buses(), 25000);
  ASSERT_EQ(gc.num_subsystems(), 48);

  SystemConfig cfg;
  cfg.truth_mode = TruthMode::kDcLinearized;
  cfg.mapping.num_clusters = 8;
  cfg.dse.workers_per_cluster = 4;
  DseSystem sys(std::move(gc), cfg);
  const CycleReport rep = sys.run_cycle(0.0);

  EXPECT_TRUE(rep.dse.all_converged);
  EXPECT_LT(rep.max_vm_error, 0.05);
  // The report carries one trace per subsystem, merged from every rank.
  EXPECT_EQ(rep.dse.traces.size(), sys.decomposition().subsystems.size());
}

}  // namespace
}  // namespace gridse::core
