// Future-work bench: the paper's conclusion announces a DSE test case on
// the WECC system with 37 balancing authorities. This bench builds that
// scenario (37 uneven subsystems, ~600 buses) and measures how the
// architecture scales as HPC clusters are added, against the centralized
// estimator on the same frame.
#include "bench_util.hpp"
#include "core/architecture.hpp"
#include "decomp/decomposition.hpp"
#include "grid/state.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace gridse;

int run() {
  bench::print_header(
      "Future work — WECC-scale DSE (37 balancing authorities)",
      "The paper's §VI scenario: 37 subsystems of uneven size. DSE cycle\n"
      "time vs the number of HPC clusters, against centralized WLS on the\n"
      "same measurements. Step-1 wall time shrinks as clusters are added;\n"
      "exchange stays small (pseudo measurements only).");

  const io::GeneratedCase generated = io::wecc37();
  std::printf("system: %d buses, %zu branches, %d subsystems\n\n",
              generated.kase.network.num_buses(),
              generated.kase.network.num_branches(),
              generated.num_subsystems());

  // Centralized reference.
  double central_ms = 0.0;
  double central_err = 0.0;
  {
    core::SystemConfig cfg;
    cfg.mapping.num_clusters = 1;
    core::DseSystem sys(io::wecc37(), cfg);
    (void)sys.run_cycle(0.0);
    Timer timer;
    const estimation::WlsResult central = sys.centralized_reference();
    central_ms = timer.millis();
    central_err = grid::max_vm_error(central.state, sys.true_state());
  }

  TextTable t({"clusters", "imbalance", "step1 (ms)", "exchange (ms)",
               "step2 (ms)", "total (ms)", "bytes", "max |V| err"});
  t.add_row({"centralized", "-", "-", "-", "-", strfmt("%.1f", central_ms),
             "0", strfmt("%.2e", central_err)});
  for (const int k : {1, 2, 4, 8}) {
    core::SystemConfig cfg;
    cfg.mapping.num_clusters = k;
    cfg.dse.workers_per_cluster = 4;
    core::DseSystem sys(io::wecc37(), cfg);
    const core::CycleReport rep = sys.run_cycle(0.0);
    t.add_row({std::to_string(k),
               strfmt("%.3f", rep.map_step1.partition.load_imbalance),
               strfmt("%.1f", rep.dse.step1_seconds * 1e3),
               strfmt("%.1f", rep.dse.exchange_seconds * 1e3),
               strfmt("%.1f", rep.dse.step2_seconds * 1e3),
               strfmt("%.1f", rep.dse.total_seconds * 1e3),
               std::to_string(rep.dse.bytes_sent),
               strfmt("%.2e", rep.max_vm_error)});
  }
  bench::print_table(t);

  // Step-2 rounds ablation: the DSE iteration count is bounded by the
  // decomposition diameter (paper §II); more rounds propagate boundary
  // information further.
  {
    const io::GeneratedCase g2 = io::wecc37();
    const decomp::Decomposition d =
        decomp::decompose(g2.kase.network, g2.subsystem_of_bus);
    std::printf("decomposition diameter: %d\n\n",
                d.decomposition_graph().diameter());
  }
  TextTable rounds_table({"step2 rounds", "max |V| err", "max angle err",
                          "bytes", "total (ms)"});
  for (const int rounds : {1, 2, 3}) {
    core::SystemConfig cfg;
    cfg.mapping.num_clusters = 4;
    cfg.dse.step2_rounds = rounds;
    core::DseSystem sys(io::wecc37(), cfg);
    const core::CycleReport rep = sys.run_cycle(0.0);
    rounds_table.add_row({std::to_string(rounds),
                          strfmt("%.2e", rep.max_vm_error),
                          strfmt("%.2e", rep.max_angle_error),
                          std::to_string(rep.dse.bytes_sent),
                          strfmt("%.1f", rep.dse.total_seconds * 1e3)});
  }
  std::printf("Step-2 exchange/re-evaluation rounds (diameter-bounded "
              "iteration, §II):\n");
  bench::print_table(rounds_table);

  return 0;
}

}  // namespace

int main() { return run(); }
