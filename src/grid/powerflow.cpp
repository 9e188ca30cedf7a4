#include "grid/powerflow.hpp"

#include <cmath>

#include "sparse/dense.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::grid {

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
  network.validate();
  const BusIndex n = network.num_buses();
  const auto ybus = build_ybus(network);
  const BusIndex slack = network.slack_bus();

  PowerFlowResult result;
  result.state = GridState(n);
  GridState& st = result.state;
  if (options.flat_start) {
    for (BusIndex i = 0; i < n; ++i) {
      const Bus& b = network.bus(i);
      st.vm[static_cast<std::size_t>(i)] =
          (b.type == BusType::kPQ) ? 1.0 : b.v_setpoint;
    }
  }

  // Unknown layout: angles of all non-slack buses, then magnitudes of PQ
  // buses.
  std::vector<BusIndex> ang_buses;
  std::vector<BusIndex> mag_buses;
  for (BusIndex i = 0; i < n; ++i) {
    if (i != slack) ang_buses.push_back(i);
    if (network.bus(i).type == BusType::kPQ) mag_buses.push_back(i);
  }
  const std::size_t na = ang_buses.size();
  const std::size_t nm = mag_buses.size();
  const std::size_t dim = na + nm;
  if (dim == 0) {
    result.converged = true;
    return result;
  }

  std::vector<std::int32_t> ang_pos(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> mag_pos(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < na; ++i) {
    ang_pos[static_cast<std::size_t>(ang_buses[i])] =
        static_cast<std::int32_t>(i);
  }
  for (std::size_t i = 0; i < nm; ++i) {
    mag_pos[static_cast<std::size_t>(mag_buses[i])] =
        static_cast<std::int32_t>(na + i);
  }

  const auto g_of = [&](BusIndex i, BusIndex j) {
    return ybus.value_at(i, j).real();
  };
  const auto b_of = [&](BusIndex i, BusIndex j) {
    return ybus.value_at(i, j).imag();
  };

  // Jacobian, dense (the power-flow substrate is only exercised on
  // case-study-sized networks; the estimator's solve path is the sparse
  // one). One matrix for the whole solve, factored in place each
  // iteration: two fresh n×n allocations per iteration cost page faults
  // whenever the allocator serves them by mmap.
  sparse::DenseMatrix jac(dim, dim);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const auto [p_calc, q_calc] = bus_injections(ybus, st);

    // mismatch vector: ΔP for non-slack, ΔQ for PQ
    std::vector<double> mismatch(dim, 0.0);
    double max_mis = 0.0;
    for (std::size_t i = 0; i < na; ++i) {
      const BusIndex b = ang_buses[i];
      const auto [ps, qs] = network.scheduled_injection(b);
      mismatch[i] = ps - p_calc[static_cast<std::size_t>(b)];
      max_mis = std::max(max_mis, std::abs(mismatch[i]));
      (void)qs;
    }
    for (std::size_t i = 0; i < nm; ++i) {
      const BusIndex b = mag_buses[i];
      const auto [ps, qs] = network.scheduled_injection(b);
      mismatch[na + i] = qs - q_calc[static_cast<std::size_t>(b)];
      max_mis = std::max(max_mis, std::abs(mismatch[na + i]));
      (void)ps;
    }
    result.max_mismatch = max_mis;
    result.iterations = iter;
    if (max_mis < options.tolerance) {
      result.converged = true;
      return result;
    }
    if (!std::isfinite(max_mis)) {
      throw ConvergenceFailure("power flow diverged (non-finite mismatch)");
    }

    jac.set_zero();
    for (BusIndex i = 0; i < n; ++i) {
      const std::size_t iu = static_cast<std::size_t>(i);
      const double vi = st.vm[iu];
      const auto row_p = ang_pos[iu];
      const auto row_q = mag_pos[iu];
      if (row_p < 0 && row_q < 0) continue;
      const auto [rb, re] = ybus.row_range(i);
      const auto cols = ybus.col_idx();
      for (auto k = rb; k < re; ++k) {
        const BusIndex j = cols[static_cast<std::size_t>(k)];
        const std::size_t ju = static_cast<std::size_t>(j);
        const double vj = st.vm[ju];
        const double gij = g_of(i, j);
        const double bij = b_of(i, j);
        const double dth = st.theta[iu] - st.theta[ju];
        const double c = std::cos(dth);
        const double s = std::sin(dth);
        const auto col_a = ang_pos[ju];
        const auto col_m = mag_pos[ju];
        if (i == j) {
          const double pi = p_calc[iu];
          const double qi = q_calc[iu];
          if (row_p >= 0 && col_a >= 0) {
            jac(static_cast<std::size_t>(row_p), static_cast<std::size_t>(col_a)) =
                -qi - bij * vi * vi;
          }
          if (row_p >= 0 && col_m >= 0) {
            jac(static_cast<std::size_t>(row_p), static_cast<std::size_t>(col_m)) =
                pi / vi + gij * vi;
          }
          if (row_q >= 0 && col_a >= 0) {
            jac(static_cast<std::size_t>(row_q), static_cast<std::size_t>(col_a)) =
                pi - gij * vi * vi;
          }
          if (row_q >= 0 && col_m >= 0) {
            jac(static_cast<std::size_t>(row_q), static_cast<std::size_t>(col_m)) =
                qi / vi - bij * vi;
          }
        } else {
          const double dp_dth = vi * vj * (gij * s - bij * c);
          const double dp_dv = vi * (gij * c + bij * s);
          const double dq_dth = -vi * vj * (gij * c + bij * s);
          const double dq_dv = vi * (gij * s - bij * c);
          if (row_p >= 0 && col_a >= 0) {
            jac(static_cast<std::size_t>(row_p),
                static_cast<std::size_t>(col_a)) = dp_dth;
          }
          if (row_p >= 0 && col_m >= 0) {
            jac(static_cast<std::size_t>(row_p),
                static_cast<std::size_t>(col_m)) = dp_dv;
          }
          if (row_q >= 0 && col_a >= 0) {
            jac(static_cast<std::size_t>(row_q),
                static_cast<std::size_t>(col_a)) = dq_dth;
          }
          if (row_q >= 0 && col_m >= 0) {
            jac(static_cast<std::size_t>(row_q),
                static_cast<std::size_t>(col_m)) = dq_dv;
          }
        }
      }
    }

    const std::vector<double> dx = jac.solve_lu_in_place(mismatch);
    for (std::size_t i = 0; i < na; ++i) {
      st.theta[static_cast<std::size_t>(ang_buses[i])] += dx[i];
    }
    for (std::size_t i = 0; i < nm; ++i) {
      st.vm[static_cast<std::size_t>(mag_buses[i])] += dx[na + i];
    }
  }
  GRIDSE_WARN << "power flow did not converge in " << options.max_iterations
              << " iterations (mismatch " << result.max_mismatch << ")";
  return result;
}

}  // namespace gridse::grid
