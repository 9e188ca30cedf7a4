// Scenario bench: the testing scenarios of Bose et al. (the paper's related
// work [6]) that §III says this architecture accommodates:
//   (a) the buses that adopt Step-2 values (the sensitivity hop count),
//   (b) FAILURE at the network connection,
//   (c) the PARTITION of the network topology (decomposition granularity).

#include "analysis/debug_sync.hpp"
#include "bench_util.hpp"
#include "core/dse_driver.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "runtime/inproc_comm.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace gridse;

struct Scenario {
  io::GeneratedCase generated;
  decomp::Decomposition d;
  grid::PowerFlowResult pf;
  grid::MeasurementSet meas;
};

Scenario make_scenario(io::GeneratedCase generated, int sensitivity_hops,
                       std::uint64_t seed) {
  Scenario s{std::move(generated), {}, {}, {}};
  s.d = decomp::decompose(s.generated.kase.network,
                          s.generated.subsystem_of_bus);
  decomp::SensitivityOptions sopts;
  sopts.hops = sensitivity_hops;
  decomp::analyze_sensitivity(s.generated.kase.network, s.d, sopts);
  s.pf = grid::solve_power_flow(s.generated.kase.network);
  grid::MeasurementPlan plan;
  for (const decomp::Subsystem& sub : s.d.subsystems) {
    plan.pmu_buses.push_back(sub.buses.front());
  }
  grid::MeasurementGenerator gen(s.generated.kase.network, plan);
  Rng rng(seed);
  s.meas = gen.generate(s.pf.state, rng);
  return s;
}

struct Outcome {
  double vm_err = 0.0;
  double angle_err = 0.0;
  std::size_t bytes = 0;
  bool converged = false;
};

Outcome run_dse(const Scenario& s, int clusters) {
  core::DseDriver driver(s.generated.kase.network, s.d, {});
  std::vector<graph::PartId> assignment(
      static_cast<std::size_t>(s.d.num_subsystems()));
  for (int i = 0; i < s.d.num_subsystems(); ++i) {
    assignment[static_cast<std::size_t>(i)] =
        static_cast<graph::PartId>(i % clusters);
  }
  runtime::InprocWorld world(clusters);
  analysis::Mutex mutex{"scenarios::mutex"};
  Outcome out;
  world.run([&](runtime::Communicator& c) {
    const core::DseResult r = driver.run(c, s.meas, assignment, assignment);
    if (c.rank() == 0) {
      analysis::LockGuard lock(mutex);
      out.vm_err = grid::max_vm_error(r.state, s.pf.state);
      out.angle_err = grid::max_angle_error(r.state, s.pf.state);
      out.bytes = r.bytes_sent;
      out.converged = r.all_converged;
    }
  });
  return out;
}

int run() {
  bench::print_header(
      "Scenario sweep — Step-2 buses, link failure, decomposition granularity",
      "The testing scenarios of the paper's related work [6], exercised on\n"
      "this architecture.");

  // --- (a) buses that adopt Step-2 values -----------------------------------
  // The exchange always ships the tie-line ends each neighbour's extended
  // model holds, so the bytes column reads the same in every row; the
  // sensitivity hop count decides which own buses take their Step-2 values.
  {
    TextTable t({"buses adopting Step-2 values", "max |V| err",
                 "max angle err", "bytes"});
    // boundary + sensitive internal (hops=1, the paper's configuration)
    const Scenario full = make_scenario(io::ieee118_dse(), 1, 5);
    const Outcome of = run_dse(full, 3);
    t.add_row({"boundary + 1-hop sensitive (paper)",
               strfmt("%.2e", of.vm_err), strfmt("%.2e", of.angle_err),
               std::to_string(of.bytes)});
    // boundary only (hops=0: no sensitive internal buses)
    const Scenario thin = make_scenario(io::ieee118_dse(), 0, 5);
    const Outcome ot = run_dse(thin, 3);
    t.add_row({"boundary buses only", strfmt("%.2e", ot.vm_err),
               strfmt("%.2e", ot.angle_err), std::to_string(ot.bytes)});
    // two-hop sensitivity
    const Scenario rich = make_scenario(io::ieee118_dse(), 2, 5);
    const Outcome orich = run_dse(rich, 3);
    t.add_row({"boundary + 2-hop sensitive", strfmt("%.2e", orich.vm_err),
               strfmt("%.2e", orich.angle_err), std::to_string(orich.bytes)});
    std::printf("(a) Buses that take their Step-2 values (the exchange "
                "ships tie-line ends in every row):\n");
    bench::print_table(t);
  }

  // --- (b) failure at the network connection --------------------------------
  {
    const Scenario s = make_scenario(io::ieee118_dse(), 1, 5);
    // Baseline Step-1/Step-2 per subsystem, then re-run subsystem 4's Step 2
    // with the link to each neighbour cut (its pseudo measurements lost).
    const decomp::MeasurementRoute route =
        decomp::route_measurements(s.d, s.generated.kase.network, s.meas);
    std::vector<std::unique_ptr<core::LocalEstimator>> ests;
    for (int i = 0; i < s.d.num_subsystems(); ++i) {
      ests.push_back(std::make_unique<core::LocalEstimator>(
          s.generated.kase.network, s.d, i, core::LocalEstimatorOptions{}));
      ests.back()->run_step1(s.meas, route);
    }
    const int victim = 4;  // subsystem 5: the best-connected one (Fig. 3)
    using Records = std::vector<core::BusStateRecord>;
    const auto boundary_err = [&](const Records& recs) {
      ests[victim]->run_step2(s.meas, route, recs);
      double err = 0.0;
      for (const core::BusStateRecord& rec : ests[victim]->final_states()) {
        err = std::max(err, std::abs(rec.vm - s.pf.state.vm[static_cast<std::size_t>(
                                                  rec.bus)]));
      }
      return err;
    };
    Records all_records;
    for (const int nbr : s.d.neighbors_of(victim)) {
      const auto recs =
          ests[static_cast<std::size_t>(nbr)]->boundary_records(victim);
      all_records.insert(all_records.end(), recs.begin(), recs.end());
    }
    TextTable t({"links up", "subsystem-5 max |V| err"});
    t.add_row({"all neighbours", strfmt("%.2e", boundary_err(all_records))});
    // drop one neighbour at a time
    for (const int lost : s.d.neighbors_of(victim)) {
      Records partial;
      for (const int nbr : s.d.neighbors_of(victim)) {
        if (nbr == lost) continue;
        const auto recs =
            ests[static_cast<std::size_t>(nbr)]->boundary_records(victim);
        partial.insert(partial.end(), recs.begin(), recs.end());
      }
      t.add_row({"link to subsystem " + std::to_string(lost + 1) + " DOWN",
                 strfmt("%.2e", boundary_err(partial))});
    }
    // total communication blackout: Step 2 degenerates toward Step 1
    t.add_row({"all links DOWN", strfmt("%.2e", boundary_err({}))});
    std::printf("(b) Failure at the network connection (graceful "
                "degradation, no crash):\n");
    bench::print_table(t);
  }

  // --- (c) partition of the network topology --------------------------------
  {
    TextTable t({"decomposition", "subsystems", "diameter", "max |V| err",
                 "bytes"});
    struct Variant {
      const char* label;
      io::SyntheticSpec spec;
    };
    std::vector<Variant> variants;
    variants.push_back({"coarse: 4 x 30 buses",
                        io::make_ring_spec(4, 30, 1, 77)});
    variants.push_back({"paper-like: 9 x 13 buses",
                        io::make_ring_spec(9, 13, 3, 77)});
    variants.push_back({"fine: 18 x 7 buses",
                        io::make_ring_spec(18, 7, 6, 77)});
    for (const Variant& v : variants) {
      const Scenario s = make_scenario(io::generate_synthetic(v.spec), 1, 9);
      const Outcome o = run_dse(s, 3);
      t.add_row({v.label, std::to_string(s.d.num_subsystems()),
                 std::to_string(s.d.decomposition_graph().diameter()),
                 strfmt("%.2e", o.vm_err), std::to_string(o.bytes)});
    }
    std::printf("(c) Decomposition granularity (similar total size, varying "
                "partition):\n");
    bench::print_table(t);
  }
  return 0;
}

}  // namespace

int main() { return run(); }
