// Ablation bench: distributed state estimation (the paper's architecture)
// vs a centralized WLS on the same measurements — accuracy, wall time and
// communication volume, across transports and noise levels. Quantifies the
// paper's claim that distribution has low overhead because only pseudo
// measurements are exchanged.
#include "analysis/debug_sync.hpp"
#include "bench_util.hpp"
#include "core/architecture.hpp"
#include "decomp/sensitivity.hpp"
#include "runtime/inproc_comm.hpp"
#include "grid/powerflow.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace gridse;

const char* transport_name(core::Transport t) {
  switch (t) {
    case core::Transport::kInproc:
      return "inproc";
    case core::Transport::kMedici:
      return "medici";
    case core::Transport::kMediciDirect:
      return "direct-tcp";
  }
  return "?";
}

int run() {
  bench::print_header(
      "Ablation — DSE vs centralized state estimation (IEEE 118, 9 "
      "subsystems, 3 clusters)",
      "Accuracy against the true operating state, end-to-end wall time and\n"
      "bytes exchanged, for each transport; centralized WLS as reference.");

  TextTable t({"mode", "transport", "max |V| err (pu)", "max angle err (rad)",
               "time (ms)", "bytes exchanged"});

  // centralized reference (uses the same measurement frame as cycle 0)
  core::SystemConfig base_cfg;
  base_cfg.mapping.num_clusters = 3;
  {
    core::DseSystem sys(io::ieee118_dse(), base_cfg);
    (void)sys.run_cycle(0.0);
    Timer timer;
    const estimation::WlsResult central = sys.centralized_reference();
    const double ms = timer.millis();
    t.add_row({"centralized", "-",
               strfmt("%.2e", grid::max_vm_error(central.state, sys.true_state())),
               strfmt("%.2e",
                      grid::max_angle_error(central.state, sys.true_state())),
               strfmt("%.1f", ms), "0"});
  }

  for (const core::Transport transport :
       {core::Transport::kInproc, core::Transport::kMediciDirect,
        core::Transport::kMedici}) {
    core::SystemConfig cfg = base_cfg;
    cfg.transport = transport;
    core::DseSystem sys(io::ieee118_dse(), cfg);
    const core::CycleReport rep = sys.run_cycle(0.0);
    t.add_row({"DSE", transport_name(transport),
               strfmt("%.2e", rep.max_vm_error),
               strfmt("%.2e", rep.max_angle_error),
               strfmt("%.1f", rep.dse.total_seconds * 1e3),
               std::to_string(rep.dse.bytes_sent)});
  }
  bench::print_table(t);

  // --- phase breakdown over the in-process transport -------------------------
  {
    core::DseSystem sys(io::ieee118_dse(), base_cfg);
    const core::CycleReport rep = sys.run_cycle(0.0);
    TextTable phases({"phase", "time (ms)"});
    phases.add_row({"DSE Step 1 (local WLS x9, 3 workers/cluster)",
                    strfmt("%.1f", rep.dse.step1_seconds * 1e3)});
    phases.add_row({"exchange (pseudo measurements + redistribution)",
                    strfmt("%.1f", rep.dse.exchange_seconds * 1e3)});
    phases.add_row({"DSE Step 2 (re-evaluation)",
                    strfmt("%.1f", rep.dse.step2_seconds * 1e3)});
    phases.add_row({"final combine",
                    strfmt("%.1f", rep.dse.combine_seconds * 1e3)});
    std::printf("Phase breakdown (inproc):\n");
    bench::print_table(phases);
  }

  // --- accuracy across noise levels ------------------------------------------
  TextTable noise({"noise level", "DSE max |V| err", "centralized max |V| err",
                   "ratio"});
  for (const double lvl : {0.5, 1.0, 2.0, 4.0}) {
    core::SystemConfig cfg = base_cfg;
    cfg.plan.noise_level = lvl;
    core::DseSystem sys(io::ieee118_dse(), cfg);
    const core::CycleReport rep = sys.run_cycle(0.0);
    const estimation::WlsResult central = sys.centralized_reference();
    const double dse_err = rep.max_vm_error;
    const double cen_err = grid::max_vm_error(central.state, sys.true_state());
    noise.add_row({strfmt("%.1f", lvl), strfmt("%.2e", dse_err),
                   strfmt("%.2e", cen_err),
                   strfmt("%.2f", cen_err > 0 ? dse_err / cen_err : 0.0)});
  }
  std::printf("Accuracy vs noise (DSE tracks the centralized estimator):\n");
  bench::print_table(noise);

  // --- bad data: plain vs robust local estimation ----------------------------
  {
    const io::GeneratedCase generated = io::ieee118_dse();
    decomp::Decomposition d = decomp::decompose(generated.kase.network,
                                                generated.subsystem_of_bus);
    decomp::analyze_sensitivity(generated.kase.network, d, {});
    const grid::PowerFlowResult pf =
        grid::solve_power_flow(generated.kase.network);
    grid::MeasurementPlan plan;
    for (const decomp::Subsystem& s : d.subsystems) {
      plan.pmu_buses.push_back(s.buses.front());
    }
    grid::MeasurementGenerator gen(generated.kase.network, plan);
    Rng rng(29);
    grid::MeasurementSet meas = gen.generate(pf.state, rng);
    // Gross errors in three flow channels (sensor failures).
    int corrupted = 0;
    for (std::size_t i = 0; i < meas.items.size() && corrupted < 3; i += 97) {
      if (meas.items[i].type == grid::MeasType::kPFlow) {
        meas.items[i].value += 0.8;
        ++corrupted;
      }
    }
    const std::vector<graph::PartId> assignment{0, 0, 0, 1, 1, 1, 2, 2, 2};
    TextTable robust_table({"local estimator", "max |V| err", "max angle err"});
    for (const bool robust : {false, true}) {
      core::DseOptions opts;
      opts.local.robust = robust;
      core::DseDriver driver(generated.kase.network, d, opts);
      runtime::InprocWorld world(3);
      analysis::Mutex mutex{"dse_vs_centralized::mutex"};
      core::DseResult res;
      world.run([&](runtime::Communicator& c) {
        core::DseResult r = driver.run(c, meas, assignment, assignment);
        if (c.rank() == 0) {
          analysis::LockGuard lock(mutex);
          res = std::move(r);
        }
      });
      robust_table.add_row({robust ? "Huber (IRLS)" : "plain WLS",
                            strfmt("%.2e", grid::max_vm_error(res.state, pf.state)),
                            strfmt("%.2e",
                                   grid::max_angle_error(res.state, pf.state))});
    }
    std::printf("Gross errors in 3 flow channels — robust local estimation "
                "bounds their influence:\n");
    bench::print_table(robust_table);
  }

  return 0;
}

}  // namespace

int main() { return run(); }
