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
/// y_mm = gmm + j·bmm and transfer admittance y_mo = gmo + j·bmo:
///   S = V_m² conj(y_mm) + V_m V_o conj(y_mo) e^{j(θ_m−θ_o)}
FlowTerms flow_terms(double gmm, double bmm, double gmo, double bmo,
                     double vm, double vo, double th_m, double th_o) {
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

/// The state-independent part of one meter; no Jacobian slots.
detail::CompiledMeter compile_meter(const Measurement& m,
                                    const Network& network) {
  detail::CompiledMeter k;
  k.type = m.type;
  k.bus = m.bus;
  if (m.type == MeasType::kPFlow || m.type == MeasType::kQFlow) {
    const Branch& br = network.branch(static_cast<std::size_t>(m.branch));
    // An open branch carries no flow: h = 0 and an empty row. Such meters
    // are masked before estimation (grid::mask_measurements); this keeps
    // the model physical for direct evaluation too.
    k.live = br.in_service;
    if (k.live) {
      const BranchAdmittance a = branch_admittance(br);
      const auto y_mm = m.at_from_side ? a.yff : a.ytt;
      const auto y_mo = m.at_from_side ? a.yft : a.ytf;
      k.bus = m.at_from_side ? br.from : br.to;
      k.other = m.at_from_side ? br.to : br.from;
      k.g_mm = y_mm.real();
      k.b_mm = y_mm.imag();
      k.g_mo = y_mo.real();
      k.b_mo = y_mo.imag();
    }
  }
  return k;
}

/// h of one meter at (theta, vm); with kJacobian also its Jacobian values,
/// written through `slots` (the meter's own, -1 = no entry) into `jac`.
template <bool kJacobian>
double eval_meter(const detail::CompiledMeter& k, const double* theta,
                  const double* vm, const sparse::CsrComplex& ybus,
                  const std::int32_t* slots, double* jac) {
  [[maybe_unused]] const auto put = [jac](std::int32_t slot, double value) {
    if (slot >= 0) jac[slot] = value;
  };
  const auto bus = static_cast<std::size_t>(k.bus);
  switch (k.type) {
    case MeasType::kVMag:
      if constexpr (kJacobian) put(slots[0], 1.0);
      return vm[bus];
    case MeasType::kVAngle:
      if constexpr (kJacobian) put(slots[0], 1.0);
      return theta[bus];
    case MeasType::kPFlow:
    case MeasType::kQFlow: {
      if (!k.live) return 0.0;
      const auto other = static_cast<std::size_t>(k.other);
      const FlowTerms t = flow_terms(k.g_mm, k.b_mm, k.g_mo, k.b_mo, vm[bus],
                                     vm[other], theta[bus], theta[other]);
      const bool is_p = k.type == MeasType::kPFlow;
      if constexpr (kJacobian) {
        put(slots[0], is_p ? t.dp_dth_m : t.dq_dth_m);
        put(slots[1], is_p ? t.dp_dth_o : t.dq_dth_o);
        put(slots[2], is_p ? t.dp_dv_m : t.dq_dv_m);
        put(slots[3], is_p ? t.dp_dv_o : t.dq_dv_o);
      }
      return is_p ? t.p : t.q;
    }
    case MeasType::kPInjection:
    case MeasType::kQInjection:
      break;
  }
  // Injection: one pass over the Ybus row. The injections accumulate, and
  // each off-diagonal sensitivity is written with the same cos/sin; the
  // diagonal ones need the finished sums and come after.
  const bool is_p = k.type == MeasType::kPInjection;
  const double vi = vm[bus];
  const auto [rb, re] = ybus.row_range(k.bus);
  const auto ycols = ybus.col_idx();
  const auto yvals = ybus.values();
  double p = 0.0;
  double q = 0.0;
  [[maybe_unused]] double gii = 0.0;
  [[maybe_unused]] double bii = 0.0;
  [[maybe_unused]] const std::int32_t* diag = nullptr;
  for (auto kk = rb; kk < re; ++kk) {
    const auto ju =
        static_cast<std::size_t>(ycols[static_cast<std::size_t>(kk)]);
    const auto y = yvals[static_cast<std::size_t>(kk)];
    const double d = theta[bus] - theta[ju];
    const double c = std::cos(d);
    const double s = std::sin(d);
    const double vv = vi * vm[ju];
    p += vv * (y.real() * c + y.imag() * s);
    q += vv * (y.real() * s - y.imag() * c);
    if constexpr (kJacobian) {
      const std::int32_t* pair = slots + 2 * (kk - rb);
      if (ju == bus) {
        gii = y.real();
        bii = y.imag();
        diag = pair;
        continue;
      }
      const double vj = vm[ju];
      if (is_p) {
        put(pair[0], vi * vj * (y.real() * s - y.imag() * c));
        put(pair[1], vi * (y.real() * c + y.imag() * s));
      } else {
        put(pair[0], -vi * vj * (y.real() * c + y.imag() * s));
        put(pair[1], vi * (y.real() * s - y.imag() * c));
      }
    }
  }
  if constexpr (kJacobian) {
    if (diag != nullptr) {
      if (is_p) {
        put(diag[0], -q - bii * vi * vi);
        put(diag[1], p / vi + gii * vi);
      } else {
        put(diag[0], p - gii * vi * vi);
        put(diag[1], q / vi - bii * vi);
      }
    }
  }
  return is_p ? p : q;
}

}  // namespace

MeasurementModel::MeasurementModel(const Network& network, StateIndex index)
    : network_(&network), index_(index), ybus_(build_ybus(network)) {
  GRIDSE_CHECK(index_.num_buses() == network.num_buses());
}

MeasurementModel::MeasurementModel(const Network& network, StateIndex index,
                                   const sparse::CsrComplex& ybus)
    : network_(&network), index_(index), borrowed_ybus_(&ybus) {
  GRIDSE_CHECK(index_.num_buses() == network.num_buses());
  GRIDSE_CHECK(ybus.rows() == network.num_buses() &&
               ybus.cols() == network.num_buses());
}

void MeasurementModel::sync_ybus(const sparse::CsrComplex& live) {
  GRIDSE_CHECK_MSG(borrowed_ybus_ == nullptr,
                   "sync_ybus: the model borrows its admittance matrix");
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
  // One meter at a time: a whole-grid set (the measurement generator's)
  // evaluated once gains nothing from a stored compiled form.
  std::vector<double> h(set.size());
  for (std::size_t mi = 0; mi < set.items.size(); ++mi) {
    h[mi] = eval_meter<false>(compile_meter(set.items[mi], *network_),
                              state.theta.data(), state.vm.data(), ybus(),
                              nullptr, nullptr);
  }
  return h;
}

sparse::Csr MeasurementModel::jacobian(const MeasurementSet& set,
                                       const GridState& state) const {
  MeasurementKernel kernel(*this, set);
  std::vector<double> h(set.size());
  kernel.linearize(state, h);
  return kernel.jacobian();
}

MeasurementKernel::MeasurementKernel(const MeasurementModel& model,
                                     const MeasurementSet& set)
    : model_(&model) {
  const Network& network = model.network();
  const StateIndex& index = model.state_index();
  const sparse::CsrComplex& ybus = model.ybus();
  const auto ycols = ybus.col_idx();
  const auto yvals = ybus.values();

  // Sized up front, so a solve allocates each array once: one slot per
  // voltage meter, four per flow meter, two per Ybus entry per injection.
  std::size_t num_slots = 0;
  for (const Measurement& m : set.items) {
    switch (m.type) {
      case MeasType::kVMag:
      case MeasType::kVAngle:
        num_slots += 1;
        break;
      case MeasType::kPFlow:
      case MeasType::kQFlow:
        num_slots += 4;
        break;
      case MeasType::kPInjection:
      case MeasType::kQInjection: {
        const auto [rb, re] = ybus.row_range(m.bus);
        num_slots += 2 * static_cast<std::size_t>(re - rb);
        break;
      }
    }
  }
  slots_.reserve(num_slots);
  std::vector<sparse::Index> row_ptr;
  std::vector<sparse::Index> col;
  row_ptr.reserve(set.size() + 1);
  row_ptr.push_back(0);
  col.reserve(num_slots);
  // Every row comes out column-sorted without a sort: StateIndex numbers
  // the θ columns, then the V columns, each increasing with the bus, so a
  // row emitting its θ entries in bus order and then its V entries in bus
  // order is sorted. The check below holds that.
  const auto emit = [&](std::int32_t column, std::size_t slot) {
    if (column < 0) return;  // the reference angle
    GRIDSE_CHECK(col.size() == static_cast<std::size_t>(row_ptr.back()) ||
                 col.back() < column);
    slots_[slot] = static_cast<std::int32_t>(col.size());
    col.push_back(column);
  };
  const auto take_slots = [&](std::size_t count) {
    const std::size_t first = slots_.size();
    slots_.resize(first + count, -1);
    return first;
  };

  meters_.reserve(set.size());
  for (const Measurement& m : set.items) {
    detail::CompiledMeter& k = meters_.emplace_back(compile_meter(m, network));
    switch (m.type) {
      case MeasType::kVMag:
      case MeasType::kVAngle: {
        const std::size_t first = take_slots(1);
        k.first_slot = static_cast<std::int32_t>(first);
        emit(m.type == MeasType::kVMag ? index.vm_index(m.bus)
                                       : index.theta_index(m.bus),
             first);
        break;
      }
      case MeasType::kPFlow:
      case MeasType::kQFlow: {
        // Slots θ_m, θ_o, V_m, V_o; none for an open branch.
        const std::size_t first = take_slots(4);
        k.first_slot = static_cast<std::int32_t>(first);
        if (!k.live) break;
        const bool m_low = k.bus < k.other;
        const BusIndex low = m_low ? k.bus : k.other;
        const BusIndex high = m_low ? k.other : k.bus;
        emit(index.theta_index(low), first + (m_low ? 0 : 1));
        emit(index.theta_index(high), first + (m_low ? 1 : 0));
        emit(index.vm_index(low), first + (m_low ? 2 : 3));
        emit(index.vm_index(high), first + (m_low ? 3 : 2));
        break;
      }
      case MeasType::kPInjection:
      case MeasType::kQInjection: {
        const auto [rb, re] = ybus.row_range(m.bus);
        const std::size_t first =
            take_slots(2 * static_cast<std::size_t>(re - rb));
        k.first_slot = static_cast<std::int32_t>(first);
        // A neighbour across only open branches has a zero Ybus entry and
        // zero sensitivity at every state: no entry. The diagonal ones are
        // identically zero only when the whole row is (a bus whose every
        // branch is open and that has no shunt).
        const bool row_live = std::any_of(
            yvals.begin() + rb, yvals.begin() + re,
            [](std::complex<double> y) { return y != 0.0; });
        const auto structural = [&](sparse::Index kk) {
          return ycols[static_cast<std::size_t>(kk)] == m.bus
                     ? row_live
                     : yvals[static_cast<std::size_t>(kk)] != 0.0;
        };
        for (auto kk = rb; kk < re; ++kk) {
          if (structural(kk)) {
            emit(index.theta_index(ycols[static_cast<std::size_t>(kk)]),
                 first + 2 * static_cast<std::size_t>(kk - rb));
          }
        }
        for (auto kk = rb; kk < re; ++kk) {
          if (structural(kk)) {
            emit(index.vm_index(ycols[static_cast<std::size_t>(kk)]),
                 first + 2 * static_cast<std::size_t>(kk - rb) + 1);
          }
        }
        break;
      }
    }
    row_ptr.push_back(static_cast<sparse::Index>(col.size()));
  }
  std::vector<double> values(col.size(), 0.0);
  jacobian_ = sparse::Csr::from_parts(static_cast<sparse::Index>(set.size()),
                                      index.size(), std::move(row_ptr),
                                      std::move(col), std::move(values));
}

void MeasurementKernel::evaluate(const GridState& state,
                                 std::span<double> h) const {
  run<false>(state, h, nullptr);
}

void MeasurementKernel::linearize(const GridState& state,
                                  std::span<double> h) {
  run<true>(state, h, jacobian_.mutable_values().data());
}

template <bool kJacobian>
void MeasurementKernel::run(const GridState& state, std::span<double> h,
                            double* jac) const {
  GRIDSE_CHECK(state.num_buses() == model_->network().num_buses());
  GRIDSE_CHECK(h.size() == meters_.size());
  const sparse::CsrComplex& ybus = model_->ybus();
  for (std::size_t mi = 0; mi < meters_.size(); ++mi) {
    const detail::CompiledMeter& k = meters_[mi];
    h[mi] = eval_meter<kJacobian>(k, state.theta.data(), state.vm.data(),
                                  ybus, slots_.data() + k.first_slot, jac);
  }
}

}  // namespace gridse::grid
