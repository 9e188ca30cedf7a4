// The paper's headline scenario end-to-end: the IEEE-118-style system
// decomposed into 9 subsystems (Fig. 3), mapped onto the 3-cluster testbed
// with the Expression (1)-(5) weight model, and estimated with the two-step
// distributed algorithm over the middleware transport.
//
//   $ ./examples/dse_ieee118 [num_cycles]
#include <cstdio>
#include <limits>

#include "core/architecture.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace gridse;
  int cycles = 3;
  if (argc > 1) {
    try {
      cycles = static_cast<int>(
          parse_integer("num_cycles", argv[1], "a positive integer", 1,
                        std::numeric_limits<int>::max()));
    } catch (const InvalidInput& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  core::SystemConfig config;
  config.mapping.num_clusters = 3;          // Nwiceb, Catamount, Chinook
  config.transport = core::Transport::kMedici;  // through pipeline relays

  core::DseSystem system(io::ieee118_dse(), config);
  const decomp::Decomposition& d = system.decomposition();
  std::printf("decomposition: %d subsystems, %zu tie lines, diameter %d\n",
              d.num_subsystems(), d.tie_lines.size(),
              d.decomposition_graph().diameter());
  for (const decomp::Subsystem& s : d.subsystems) {
    std::printf("  subsystem %d: %2zu buses (%zu boundary, %zu sensitive "
                "internal -> gs=%d)\n",
                s.id + 1, s.buses.size(), s.boundary_buses.size(),
                s.sensitive_internal.size(), s.gs());
  }

  const char* cluster_names[] = {"Nwiceb", "Catamount", "Chinook"};
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const double t = cycle * 30.0;  // a new SCADA frame every 30 s
    const core::CycleReport rep = system.run_cycle(t);

    std::printf("\n--- cycle %d (t=%.0fs, noise x=%.2f) ---\n", cycle + 1, t,
                rep.map_step1.noise_level);
    std::printf("mapping before Step 1 (imbalance %.3f):",
                rep.map_step1.partition.load_imbalance);
    for (int s = 0; s < d.num_subsystems(); ++s) {
      std::printf(" %d->%s", s + 1,
                  cluster_names[rep.map_step1.partition
                                    .assignment[static_cast<std::size_t>(s)]]);
    }
    std::printf("\nremap before Step 2 (imbalance %.3f): %d subsystem(s) "
                "moved, %s redistributed\n",
                rep.map_step2.partition.load_imbalance,
                static_cast<int>(rep.redistribution.moves.size()),
                format_bytes(rep.redistribution.total_bytes()).c_str());
    std::printf("DSE: %s | step1 %.1f ms, exchange %.1f ms, step2 %.1f ms, "
                "combine %.1f ms | %zu bytes exchanged\n",
                rep.dse.all_converged ? "converged" : "NOT CONVERGED",
                rep.dse.step1_seconds * 1e3, rep.dse.exchange_seconds * 1e3,
                rep.dse.step2_seconds * 1e3, rep.dse.combine_seconds * 1e3,
                rep.dse.bytes_sent);
    std::printf("accuracy vs truth: max |V| err %.2e pu, max angle err "
                "%.2e rad\n",
                rep.max_vm_error, rep.max_angle_error);

    const estimation::WlsResult central = system.centralized_reference();
    std::printf("centralized reference: max |V| err %.2e pu (DSE/central "
                "ratio %.2f)\n",
                grid::max_vm_error(central.state, system.true_state()),
                rep.max_vm_error /
                    grid::max_vm_error(central.state, system.true_state()));
  }
  return 0;
}
