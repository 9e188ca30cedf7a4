#include "estimation/outputs.hpp"

#include <cmath>
#include <complex>

#include "grid/powerflow.hpp"
#include "grid/ybus.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/normal_equations.hpp"
#include "util/error.hpp"

namespace gridse::estimation {

std::vector<double> SolutionReport::loadings(
    const grid::Network& network) const {
  GRIDSE_CHECK(flows.size() == network.num_branches());
  std::vector<double> out(flows.size(), 0.0);
  for (std::size_t bi = 0; bi < flows.size(); ++bi) {
    const double rating = network.branch(bi).rating;
    if (rating <= 0.0) continue;
    const double s_from =
        std::hypot(flows[bi].p_from, flows[bi].q_from);
    out[bi] = s_from / rating;
  }
  return out;
}

SolutionReport build_solution_report(const grid::Network& network,
                                     const grid::GridState& state) {
  GRIDSE_CHECK(state.num_buses() == network.num_buses());
  using C = std::complex<double>;
  SolutionReport report;
  report.state = state;

  const auto ybus = grid::build_ybus(network);
  auto [p, q] = grid::bus_injections(ybus, state);
  report.p_injection = std::move(p);
  report.q_injection = std::move(q);

  report.flows.reserve(network.num_branches());
  for (std::size_t bi = 0; bi < network.num_branches(); ++bi) {
    const grid::Branch& br = network.branch(bi);
    const grid::BranchAdmittance a = grid::branch_admittance(br);
    const C vf = grid::phasor(state.vm[static_cast<std::size_t>(br.from)],
                              state.theta[static_cast<std::size_t>(br.from)]);
    const C vt = grid::phasor(state.vm[static_cast<std::size_t>(br.to)],
                              state.theta[static_cast<std::size_t>(br.to)]);
    const C s_from = vf * std::conj(a.yff * vf + a.yft * vt);
    const C s_to = vt * std::conj(a.ytf * vf + a.ytt * vt);
    BranchFlowEstimate flow;
    flow.branch = bi;
    flow.p_from = s_from.real();
    flow.q_from = s_from.imag();
    flow.p_to = s_to.real();
    flow.q_to = s_to.imag();
    report.total_loss += flow.p_loss();
    report.flows.push_back(flow);
  }
  return report;
}

StateConfidence estimate_confidence(const grid::MeasurementModel& model,
                                    const grid::MeasurementSet& set,
                                    const grid::GridState& state) {
  const grid::StateIndex& index = model.state_index();
  GRIDSE_CHECK(state.num_buses() == index.num_buses());
  const sparse::Csr h = model.jacobian(set, state);
  const std::vector<double> w = set.weights();
  const sparse::Csr gain = sparse::normal_matrix(h, w);
  sparse::SparseLdlt ldlt;
  ldlt.factorize(gain);

  // diag(G⁻¹) column by column: G⁻¹ e_k. One solve per state; the factor is
  // reused, so this is O(n · solve) — fine at case-study scale.
  const auto n = static_cast<std::size_t>(gain.rows());
  std::vector<double> variance(n);
  std::vector<double> unit(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    unit[k] = 1.0;
    const std::vector<double> column = ldlt.solve(unit);
    unit[k] = 0.0;
    variance[k] = std::max(column[k], 0.0);
  }

  StateConfidence conf;
  const auto buses = static_cast<std::size_t>(index.num_buses());
  conf.theta_stddev.assign(buses, 0.0);
  conf.vm_stddev.assign(buses, 0.0);
  for (grid::BusIndex b = 0; b < index.num_buses(); ++b) {
    const auto ti = index.theta_index(b);
    if (ti >= 0) {
      conf.theta_stddev[static_cast<std::size_t>(b)] =
          std::sqrt(variance[static_cast<std::size_t>(ti)]);
    }
    conf.vm_stddev[static_cast<std::size_t>(b)] =
        std::sqrt(variance[static_cast<std::size_t>(index.vm_index(b))]);
  }
  return conf;
}

}  // namespace gridse::estimation
