// End-to-end integration across the whole stack: distributed state
// estimation produces the operating point and the solution report turns it
// into flows and loadings — the paper's §I pipeline ("critical inputs for
// other power system operational tools") in one test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/architecture.hpp"
#include "estimation/outputs.hpp"
#include "grid/dc_powerflow.hpp"

namespace gridse::estimation {
namespace {

TEST(PipelineIntegration, DseFeedsSolutionReport) {
  // 1. distributed estimation of the operating state
  core::SystemConfig config;
  config.mapping.num_clusters = 3;
  core::DseSystem system(io::ieee118_dse(), config);
  const core::CycleReport cycle = system.run_cycle(0.0);
  ASSERT_TRUE(cycle.dse.all_converged);

  // 2. operating-point report from the ESTIMATED state
  const SolutionReport report =
      build_solution_report(system.network(), cycle.dse.state);
  EXPECT_GT(report.total_loss, 0.0);
  EXPECT_EQ(report.flows.size(), system.network().num_branches());

  // 3. cross-check: estimated flows agree with the true flows well inside
  // a 40% rating margin, so tools consuming the estimate can trust it.
  const SolutionReport truth =
      build_solution_report(system.network(), system.true_state());
  double worst_flow_error = 0.0;
  for (std::size_t bi = 0; bi < report.flows.size(); ++bi) {
    worst_flow_error =
        std::max(worst_flow_error, std::abs(report.flows[bi].p_from -
                                            truth.flows[bi].p_from));
  }
  EXPECT_LT(worst_flow_error, 0.05);
}

TEST(PipelineIntegration, EstimatedLoadingsMatchTrueLoadings) {
  core::SystemConfig config;
  config.mapping.num_clusters = 3;
  core::DseSystem system(io::ieee118_dse(), config);
  const core::CycleReport cycle = system.run_cycle(0.0);
  ASSERT_TRUE(cycle.dse.all_converged);

  io::GeneratedCase rated = io::ieee118_dse();
  grid::assign_ratings_from_base_case(rated.kase.network, 1.3, 0.2);
  const SolutionReport est_report =
      build_solution_report(rated.kase.network, cycle.dse.state);
  const SolutionReport true_report =
      build_solution_report(rated.kase.network, system.true_state());
  const auto est_loadings = est_report.loadings(rated.kase.network);
  const auto true_loadings = true_report.loadings(rated.kase.network);
  for (std::size_t bi = 0; bi < est_loadings.size(); ++bi) {
    // Branches at the rating floor (0.2 p.u.) amplify small absolute flow
    // errors into loading points, hence the 0.25 band.
    EXPECT_NEAR(est_loadings[bi], true_loadings[bi], 0.25) << "branch " << bi;
  }
}

}  // namespace
}  // namespace gridse::estimation
