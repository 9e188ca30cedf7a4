// Mirrors Figures 6 and 7 of the paper: two state estimators on different
// "clusters" exchange boundary-bus solutions through MeDICi pipelines with
// TCP endpoints, using the MW_Client_Send / MW_Client_Recv pattern.
//
//   $ ./examples/middleware_pipeline
#include <cstdio>
#include <memory>
#include <thread>

#include "core/local_estimator.hpp"
#include "core/serialize.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "medici/mw_client.hpp"
#include "medici/pipeline.hpp"
#include "util/rng.hpp"

namespace {

using namespace gridse;

/// A started one-way pipeline plus its resolved inbound endpoint.
struct Channel {
  std::unique_ptr<medici::MifPipeline> pipeline;
  medici::EndpointUrl inbound;
};

Channel make_channel(const medici::EndpointUrl& destination) {
  Channel ch;
  ch.pipeline = std::make_unique<medici::MifPipeline>();
  auto& conn = ch.pipeline->add_mif_connector(medici::EndpointProtocol::kTcp);
  conn.set_property("tcpProtocol", "EOFProtocol");
  auto& se = ch.pipeline->add_mif_component("SESocket");
  se.set_in_name_endpoint("tcp://127.0.0.1:0");
  se.set_out_hal_endpoint(destination.to_string());
  ch.pipeline->start();
  ch.inbound = se.inbound();
  return ch;
}

}  // namespace

int main() {
  // A 2-subsystem interconnection: each side runs its own local estimation.
  io::SyntheticSpec spec;
  spec.subsystem_sizes = {14, 14};
  spec.decomposition_edges = {{0, 1}};
  spec.seed = 7;
  const io::GeneratedCase generated = io::generate_synthetic(spec);
  decomp::Decomposition d =
      decomp::decompose(generated.kase.network, generated.subsystem_of_bus);
  decomp::analyze_sensitivity(generated.kase.network, d, {});

  const grid::PowerFlowResult pf =
      grid::solve_power_flow(generated.kase.network);
  grid::MeasurementPlan plan;
  plan.pmu_buses = {d.subsystems[0].buses.front(),
                    d.subsystems[1].buses.front()};
  grid::MeasurementGenerator gen(generated.kase.network, plan);
  Rng rng(3);
  const grid::MeasurementSet meas = gen.generate(pf.state, rng);
  // Each meter is routed to the subsystem owning its bus, once per frame.
  const decomp::MeasurementRoute route =
      decomp::route_measurements(d, generated.kase.network, meas);

  // --- each estimator is identified by a URL (paper §IV-A) ------------------
  medici::MwClient nwiceb_se(0);   // estimator on "Nwiceb"
  medici::MwClient chinook_se(1);  // estimator on "Chinook"
  std::printf("estimator 0 URL: %s\n",
              nwiceb_se.endpoint().to_string().c_str());
  std::printf("estimator 1 URL: %s\n",
              chinook_se.endpoint().to_string().c_str());

  // --- Fig. 7: one pipeline per direction ------------------------------------
  const Channel to_chinook = make_channel(chinook_se.endpoint());
  const Channel to_nwiceb = make_channel(nwiceb_se.endpoint());
  std::printf("pipeline 0->1 inbound endpoint: %s\n",
              to_chinook.inbound.to_string().c_str());
  std::printf("pipeline 1->0 inbound endpoint: %s\n",
              to_nwiceb.inbound.to_string().c_str());

  // --- Fig. 6: per-estimator DSE with MW_Client_Send / MW_Client_Recv -------
  const auto run_side = [&](int side, medici::MwClient& client,
                            const medici::EndpointUrl& pipeline_inbound) {
    core::LocalEstimator estimator(generated.kase.network, d, side,
                                   core::LocalEstimatorOptions{});
    const core::LocalSolveInfo step1 = estimator.run_step1(meas, route);
    std::printf("[SE %d] DSE Step 1: %s, %zu measurements, %d iterations\n",
                side, step1.converged ? "converged" : "FAILED",
                step1.num_measurements, step1.gauss_newton_iterations);

    // MW_Client_Send(MeDICi, neighbor, step1_solution): the states at the
    // tie-line ends, the own buses the neighbour's extended model holds
    const auto records = estimator.boundary_records(1 - side);
    client.send(pipeline_inbound, /*tag=*/1,
                core::encode_boundary_records(records));

    // pseudo[neighbor] <- MW_Client_Recv(MeDICi, neighbor)
    const runtime::Message msg = client.recv(runtime::kAnySource, 1);
    const auto pseudo = core::decode_boundary_records(msg.payload);
    std::printf("[SE %d] received %zu pseudo measurements from SE %d via "
                "MeDICi\n",
                side, pseudo.size(), msg.source);

    const core::LocalSolveInfo step2 =
        estimator.run_step2(meas, route, pseudo);
    std::printf("[SE %d] DSE Step 2: %s, %zu measurements (incl. pseudo)\n",
                side, step2.converged ? "converged" : "FAILED",
                step2.num_measurements);

    double max_err = 0.0;
    for (const core::BusStateRecord& rec : estimator.final_states()) {
      max_err = std::max(
          max_err,
          std::abs(rec.vm - pf.state.vm[static_cast<std::size_t>(rec.bus)]));
    }
    std::printf("[SE %d] final max |V| error on own buses: %.2e pu\n", side,
                max_err);
  };

  std::thread side0(
      [&] { run_side(0, nwiceb_se, to_chinook.inbound); });
  std::thread side1(
      [&] { run_side(1, chinook_se, to_nwiceb.inbound); });
  side0.join();
  side1.join();

  std::printf("relayed through MeDICi: %zu messages, %zu bytes (0->1); "
              "%zu messages, %zu bytes (1->0)\n",
              to_chinook.pipeline->stats().messages,
              to_chinook.pipeline->stats().bytes,
              to_nwiceb.pipeline->stats().messages,
              to_nwiceb.pipeline->stats().bytes);
  return 0;
}
