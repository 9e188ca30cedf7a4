#include "grid/powerflow.hpp"

#include <algorithm>
#include <cmath>

#include "grid/meas_model.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::grid {
namespace {

/// GMRES stop of each Newton correction. Newton keeps its quadratic rate
/// while the relative error of a step stays below the mismatch it corrects
/// (an inexact Newton forcing term), so this leaves the Newton counts and
/// the converged states of the dense-LU solve unchanged to rounding: on
/// ieee14, ieee118 and wecc37 every stop from 1e-6 to 1e-13 converged in
/// the same count to the same state within 1e-13.
constexpr double kGmresTolerance = 1e-10;

/// −Im Ybus over the buses with `row_of[b] >= 0`, row row_of[b]. Ybus rows
/// are column-sorted and `row_of` increases with the bus, so each row comes
/// out sorted. Ybus keeps out-of-service branches as explicit zeros, so the
/// pattern, and with it the factor's plan, survives switching. A phase
/// shifter's asymmetric pair is factored through its lower entry: the
/// matrix only preconditions.
sparse::Csr decoupled_block(const sparse::CsrComplex& ybus,
                            std::span<const std::int32_t> row_of,
                            sparse::Index dim) {
  sparse::CsrRowBuilder<double> builder(dim, ybus.nnz());
  const auto cols = ybus.col_idx();
  const auto vals = ybus.values();
  for (BusIndex i = 0; i < ybus.rows(); ++i) {
    if (row_of[static_cast<std::size_t>(i)] < 0) continue;
    const auto [rb, re] = ybus.row_range(i);
    for (auto k = rb; k < re; ++k) {
      const std::int32_t col =
          row_of[static_cast<std::size_t>(cols[static_cast<std::size_t>(k)])];
      if (col >= 0) builder.add(col, -vals[static_cast<std::size_t>(k)].imag());
    }
    builder.end_row();
  }
  return std::move(builder).finish();
}

}  // namespace

std::pair<std::vector<double>, std::vector<double>> bus_injections(
    const sparse::CsrComplex& ybus, const GridState& state) {
  using C = std::complex<double>;
  const auto n = static_cast<std::size_t>(ybus.rows());
  GRIDSE_CHECK(state.theta.size() == n);
  std::vector<C> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = phasor(state.vm[i], state.theta[i]);
  }
  std::vector<C> iv(n);
  ybus.multiply(v, iv);
  std::vector<double> p(n);
  std::vector<double> q(n);
  for (std::size_t i = 0; i < n; ++i) {
    const C s = v[i] * std::conj(iv[i]);
    p[i] = s.real();
    q[i] = s.imag();
  }
  return {std::move(p), std::move(q)};
}

PowerFlowResult solve_power_flow(const Network& network,
                                 const PowerFlowOptions& options) {
  PowerFlowFactors slot;
  return solve_power_flow(network, slot, options);
}

PowerFlowResult solve_power_flow(const Network& network,
                                 PowerFlowFactors& slot,
                                 const PowerFlowOptions& options) {
  const BusIndex n = network.num_buses();
  const BusIndex slack = network.slack_bus();
  const auto ybus = build_ybus(network);
  const StateIndex index(n, slack);

  PowerFlowResult result;
  result.state = GridState(n);
  GridState& st = result.state;
  for (BusIndex i = 0; i < n; ++i) {
    const Bus& b = network.bus(i);
    st.vm[static_cast<std::size_t>(i)] =
        (b.type == BusType::kPQ) ? 1.0 : b.v_setpoint;
  }

  // Unknowns and equations: θ and ΔP of every non-slack bus (row
  // theta_index), then |V| and ΔQ of every PQ bus (row na + mag_row).
  std::vector<std::int32_t> theta_row(static_cast<std::size_t>(n));
  std::vector<std::int32_t> mag_row(static_cast<std::size_t>(n), -1);
  std::int32_t nm = 0;
  MeasurementSet equations;
  for (BusIndex i = 0; i < n; ++i) {
    theta_row[static_cast<std::size_t>(i)] = index.theta_index(i);
    if (i != slack) {
      equations.items.push_back({.type = MeasType::kPInjection, .bus = i});
    }
  }
  for (BusIndex i = 0; i < n; ++i) {
    if (network.bus(i).type != BusType::kPQ) continue;
    mag_row[static_cast<std::size_t>(i)] = nm++;
    equations.items.push_back({.type = MeasType::kQInjection, .bus = i});
  }
  const std::int32_t na = n - 1;
  const std::size_t dim = equations.size();

  sparse::Csr bprime = decoupled_block(ybus, theta_row, na);
  sparse::Csr bdoubleprime = decoupled_block(ybus, mag_row, nm);
  const bool stale_p = na > 0 && !slot.bprime_.holds(bprime);
  const bool stale_pp = nm > 0 && !slot.bdoubleprime_.holds(bdoubleprime);
  if (stale_p || stale_pp) {
    network.validate();
  }
  if (stale_p) slot.bprime_.factor(std::move(bprime));
  if (stale_pp) slot.bdoubleprime_.factor(std::move(bdoubleprime));
  if (dim == 0) {
    result.converged = true;
    return result;
  }

  std::vector<double> scheduled(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    const Measurement& eq = equations.items[r];
    const auto [ps, qs] = network.scheduled_injection(eq.bus);
    scheduled[r] = eq.type == MeasType::kPInjection ? ps : qs;
  }

  // The power-flow Jacobian is the kernel's with the |V| columns of the
  // slack and PV buses dropped. The kernel numbers θ columns as theta_row
  // and |V| columns in bus order, so the kept columns map monotonically and
  // every row stays sorted.
  const MeasurementModel model(network, index, ybus);
  MeasurementKernel kernel(model, equations);
  const sparse::Csr& full = kernel.jacobian();
  std::vector<sparse::Index> keep;
  std::vector<sparse::Index> row_ptr{0};
  std::vector<sparse::Index> col;
  keep.reserve(full.nnz());
  col.reserve(full.nnz());
  for (sparse::Index r = 0; r < full.rows(); ++r) {
    const auto [rb, re] = full.row_range(r);
    for (auto k = rb; k < re; ++k) {
      const sparse::Index c = full.col_idx()[static_cast<std::size_t>(k)];
      const sparse::Index mapped =
          c < na ? c : (mag_row[static_cast<std::size_t>(c - na)] < 0
                            ? -1
                            : na + mag_row[static_cast<std::size_t>(c - na)]);
      if (mapped < 0) continue;
      keep.push_back(k);
      col.push_back(mapped);
    }
    row_ptr.push_back(static_cast<sparse::Index>(col.size()));
  }
  const auto dim_index = static_cast<sparse::Index>(dim);
  sparse::Csr jac = sparse::Csr::from_parts(
      dim_index, dim_index, std::move(row_ptr), std::move(col),
      std::vector<double>(keep.size(), 0.0));

  const sparse::Preconditioner precondition =
      [&slot, na, nm](std::span<const double> v, std::span<double> z) {
        const auto split = static_cast<std::size_t>(na);
        slot.bprime_.solve(v.first(split), z.first(split));
        if (nm > 0) {
          slot.bdoubleprime_.solve(v.subspan(split), z.subspan(split));
        }
      };
  std::vector<double> h(dim);
  std::vector<double> mismatch(dim);
  std::vector<double> dx(dim);
  for (int iter = 0;; ++iter) {
    kernel.linearize(st, h);
    double max_mis = 0.0;
    for (std::size_t r = 0; r < dim; ++r) {
      mismatch[r] = scheduled[r] - h[r];
      max_mis = std::max(max_mis, std::abs(mismatch[r]));
    }
    // The count and mismatch of the state returned, whatever ends the loop.
    result.iterations = iter;
    result.max_mismatch = max_mis;
    if (max_mis < options.tolerance) {
      result.converged = true;
      return result;
    }
    if (!std::isfinite(max_mis)) {
      throw ConvergenceFailure("power flow diverged (non-finite mismatch)");
    }
    if (iter >= options.max_iterations) break;

    const auto full_vals = full.values();
    const auto jac_vals = jac.mutable_values();
    for (std::size_t t = 0; t < keep.size(); ++t) {
      jac_vals[t] = full_vals[static_cast<std::size_t>(keep[t])];
    }
    std::fill(dx.begin(), dx.end(), 0.0);
    const sparse::CgReport step =
        sparse::gmres(jac, mismatch, dx, precondition, slot.gmres_,
                      kGmresTolerance);
    slot.gmres_iterations_ += static_cast<std::uint64_t>(step.iterations);
    if (!step.converged) {
      GRIDSE_WARN << "power flow: GMRES stopped at relative residual "
                  << step.relative_residual << " after " << step.iterations
                  << " iterations (Newton iteration " << iter << ")";
      return result;
    }
    for (BusIndex i = 0; i < n; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (theta_row[iu] >= 0) {
        st.theta[iu] += dx[static_cast<std::size_t>(theta_row[iu])];
      }
      if (mag_row[iu] >= 0) {
        st.vm[iu] += dx[static_cast<std::size_t>(na + mag_row[iu])];
      }
    }
  }
  GRIDSE_WARN << "power flow did not converge in " << options.max_iterations
              << " iterations (mismatch " << result.max_mismatch << ")";
  return result;
}

}  // namespace gridse::grid
