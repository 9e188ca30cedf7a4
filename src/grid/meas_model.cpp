#include "grid/meas_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace gridse::grid {
namespace {

/// Scalar pieces of one branch end's flow equations.
struct FlowTerms {
  double p;
  double q;
  double dp_dth_m;  // ∂P/∂θ at metered bus
  double dp_dth_o;  // ∂P/∂θ at other bus
  double dp_dv_m;   // ∂P/∂V at metered bus
  double dp_dv_o;   // ∂P/∂V at other bus
  double dq_dth_m;
  double dq_dth_o;
  double dq_dv_m;
  double dq_dv_o;
};

/// Flow metered at bus m toward bus o through a two-port with self-admittance
/// y_mm and transfer admittance y_mo:
///   S = V_m² conj(y_mm) + V_m V_o conj(y_mo) e^{j(θ_m−θ_o)}
FlowTerms flow_terms(std::complex<double> y_mm, std::complex<double> y_mo,
                     double vm, double vo, double th_m, double th_o) {
  const double gmm = y_mm.real();
  const double bmm = y_mm.imag();
  const double gmo = y_mo.real();
  const double bmo = y_mo.imag();
  const double d = th_m - th_o;
  const double c = std::cos(d);
  const double s = std::sin(d);
  FlowTerms t{};
  const double cross_p = gmo * c + bmo * s;   // Re(conj(y_mo) e^{jd})
  const double cross_q = gmo * s - bmo * c;   // Im(conj(y_mo) e^{jd})
  t.p = vm * vm * gmm + vm * vo * cross_p;
  t.q = -vm * vm * bmm + vm * vo * cross_q;
  t.dp_dth_m = vm * vo * (-gmo * s + bmo * c);
  t.dp_dth_o = -t.dp_dth_m;
  t.dp_dv_m = 2.0 * vm * gmm + vo * cross_p;
  t.dp_dv_o = vm * cross_p;
  t.dq_dth_m = vm * vo * cross_p;
  t.dq_dth_o = -t.dq_dth_m;
  t.dq_dv_m = -2.0 * vm * bmm + vo * cross_q;
  t.dq_dv_o = vm * cross_q;
  return t;
}

}  // namespace

MeasurementModel::MeasurementModel(const Network& network, StateIndex index)
    : network_(&network), index_(index), ybus_(build_ybus(network)) {
  GRIDSE_CHECK(index_.num_buses() == network.num_buses());
}

void MeasurementModel::sync_ybus(const sparse::CsrComplex& live) {
  if (live.rows() != ybus_.rows() || live.nnz() != ybus_.nnz() ||
      !std::equal(live.row_ptr().begin(), live.row_ptr().end(),
                  ybus_.row_ptr().begin()) ||
      !std::equal(live.col_idx().begin(), live.col_idx().end(),
                  ybus_.col_idx().begin())) {
    throw InvalidInput(
        "sync_ybus: pattern mismatch — the live Ybus is not an in-place "
        "patched copy of this model's admittance matrix");
  }
  std::copy(live.values().begin(), live.values().end(),
            ybus_.mutable_values().begin());
}

std::vector<double> MeasurementModel::evaluate(const MeasurementSet& set,
                                               const GridState& state) const {
  GRIDSE_CHECK(state.num_buses() == network_->num_buses());
  std::vector<double> h(set.size());
  for (std::size_t mi = 0; mi < set.items.size(); ++mi) {
    const Measurement& m = set.items[mi];
    switch (m.type) {
      case MeasType::kVMag:
        h[mi] = state.vm[static_cast<std::size_t>(m.bus)];
        break;
      case MeasType::kVAngle:
        h[mi] = state.theta[static_cast<std::size_t>(m.bus)];
        break;
      case MeasType::kPFlow:
      case MeasType::kQFlow: {
        const Branch& br = network_->branch(static_cast<std::size_t>(m.branch));
        // Open branch carries no flow. Such measurements are masked before
        // estimation (grid::mask_measurements); this guard keeps the model
        // physical for direct evaluation too.
        if (!br.in_service) {
          h[mi] = 0.0;
          break;
        }
        const BranchAdmittance a = branch_admittance(br);
        const BusIndex mb = m.at_from_side ? br.from : br.to;
        const BusIndex ob = m.at_from_side ? br.to : br.from;
        const auto y_mm = m.at_from_side ? a.yff : a.ytt;
        const auto y_mo = m.at_from_side ? a.yft : a.ytf;
        const FlowTerms t = flow_terms(
            y_mm, y_mo, state.vm[static_cast<std::size_t>(mb)],
            state.vm[static_cast<std::size_t>(ob)],
            state.theta[static_cast<std::size_t>(mb)],
            state.theta[static_cast<std::size_t>(ob)]);
        h[mi] = (m.type == MeasType::kPFlow) ? t.p : t.q;
        break;
      }
      case MeasType::kPInjection:
      case MeasType::kQInjection: {
        const BusIndex i = m.bus;
        const std::size_t iu = static_cast<std::size_t>(i);
        const auto [rb, re] = ybus_.row_range(i);
        const auto cols = ybus_.col_idx();
        const auto vals = ybus_.values();
        double p = 0.0;
        double q = 0.0;
        for (auto k = rb; k < re; ++k) {
          const BusIndex j = cols[static_cast<std::size_t>(k)];
          const std::size_t ju = static_cast<std::size_t>(j);
          const auto y = vals[static_cast<std::size_t>(k)];
          const double d = state.theta[iu] - state.theta[ju];
          const double vv = state.vm[iu] * state.vm[ju];
          p += vv * (y.real() * std::cos(d) + y.imag() * std::sin(d));
          q += vv * (y.real() * std::sin(d) - y.imag() * std::cos(d));
        }
        h[mi] = (m.type == MeasType::kPInjection) ? p : q;
        break;
      }
    }
  }
  return h;
}

sparse::Csr MeasurementModel::jacobian(const MeasurementSet& set,
                                       const GridState& state) const {
  GRIDSE_CHECK(state.num_buses() == network_->num_buses());
  // Rows are emitted in measurement order, so each one is sorted on its own
  // instead of sorting the whole matrix's triplets.
  sparse::CsrRowBuilder<double> rows(index_.size(), set.size() * 8);

  const auto add = [&](std::int32_t col, double value) {
    if (col >= 0 && value != 0.0) {
      rows.add(col, value);
    }
  };

  for (std::size_t mi = 0; mi < set.items.size(); ++mi) {
    const Measurement& m = set.items[mi];
    switch (m.type) {
      case MeasType::kVMag:
        add(index_.vm_index(m.bus), 1.0);
        break;
      case MeasType::kVAngle:
        add(index_.theta_index(m.bus), 1.0);
        break;
      case MeasType::kPFlow:
      case MeasType::kQFlow: {
        const Branch& br = network_->branch(static_cast<std::size_t>(m.branch));
        if (!br.in_service) break;  // zero flow, zero sensitivity
        const BranchAdmittance a = branch_admittance(br);
        const BusIndex mb = m.at_from_side ? br.from : br.to;
        const BusIndex ob = m.at_from_side ? br.to : br.from;
        const auto y_mm = m.at_from_side ? a.yff : a.ytt;
        const auto y_mo = m.at_from_side ? a.yft : a.ytf;
        const FlowTerms t = flow_terms(
            y_mm, y_mo, state.vm[static_cast<std::size_t>(mb)],
            state.vm[static_cast<std::size_t>(ob)],
            state.theta[static_cast<std::size_t>(mb)],
            state.theta[static_cast<std::size_t>(ob)]);
        const bool is_p = m.type == MeasType::kPFlow;
        add(index_.theta_index(mb), is_p ? t.dp_dth_m : t.dq_dth_m);
        add(index_.theta_index(ob), is_p ? t.dp_dth_o : t.dq_dth_o);
        add(index_.vm_index(mb), is_p ? t.dp_dv_m : t.dq_dv_m);
        add(index_.vm_index(ob), is_p ? t.dp_dv_o : t.dq_dv_o);
        break;
      }
      case MeasType::kPInjection:
      case MeasType::kQInjection: {
        const BusIndex i = m.bus;
        const std::size_t iu = static_cast<std::size_t>(i);
        const double vi = state.vm[iu];
        const auto [rb, re] = ybus_.row_range(i);
        const auto cols = ybus_.col_idx();
        const auto vals = ybus_.values();
        // First pass: injections at bus i (needed for the diagonal terms).
        double p = 0.0;
        double q = 0.0;
        double gii = 0.0;
        double bii = 0.0;
        for (auto k = rb; k < re; ++k) {
          const BusIndex j = cols[static_cast<std::size_t>(k)];
          const std::size_t ju = static_cast<std::size_t>(j);
          const auto y = vals[static_cast<std::size_t>(k)];
          if (j == i) {
            gii = y.real();
            bii = y.imag();
          }
          const double d = state.theta[iu] - state.theta[ju];
          const double vv = vi * state.vm[ju];
          p += vv * (y.real() * std::cos(d) + y.imag() * std::sin(d));
          q += vv * (y.real() * std::sin(d) - y.imag() * std::cos(d));
        }
        const bool is_p = m.type == MeasType::kPInjection;
        for (auto k = rb; k < re; ++k) {
          const BusIndex j = cols[static_cast<std::size_t>(k)];
          const std::size_t ju = static_cast<std::size_t>(j);
          const auto y = vals[static_cast<std::size_t>(k)];
          if (j == i) {
            if (is_p) {
              add(index_.theta_index(i), -q - bii * vi * vi);
              add(index_.vm_index(i), p / vi + gii * vi);
            } else {
              add(index_.theta_index(i), p - gii * vi * vi);
              add(index_.vm_index(i), q / vi - bii * vi);
            }
            continue;
          }
          const double vj = state.vm[ju];
          const double d = state.theta[iu] - state.theta[ju];
          const double c = std::cos(d);
          const double s = std::sin(d);
          if (is_p) {
            add(index_.theta_index(j), vi * vj * (y.real() * s - y.imag() * c));
            add(index_.vm_index(j), vi * (y.real() * c + y.imag() * s));
          } else {
            add(index_.theta_index(j),
                -vi * vj * (y.real() * c + y.imag() * s));
            add(index_.vm_index(j), vi * (y.real() * s - y.imag() * c));
          }
        }
        break;
      }
    }
    rows.end_row();
  }
  return std::move(rows).finish();
}

}  // namespace gridse::grid
