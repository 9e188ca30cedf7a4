#include "sparse/gmres.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/vector_ops.hpp"
#include "util/error.hpp"

namespace gridse::sparse {
namespace {

/// Krylov vectors per cycle before a restart.
constexpr std::size_t kRestart = 50;

}  // namespace

CgReport gmres(const Csr& a, std::span<const double> b, std::span<double> x,
               const Preconditioner& precondition, GmresWorkspace& work,
               double tolerance) {
  GRIDSE_CHECK(a.rows() == a.cols());
  const auto n = static_cast<std::size_t>(a.rows());
  GRIDSE_CHECK(b.size() == n && x.size() == n);

  const double b_norm = norm2(b);
  CgReport report;
  if (b_norm == 0.0) {
    set_zero(x);
    report.converged = true;
    return report;
  }

  const auto max_iter = static_cast<int>(n);
  const std::size_t m = std::min(kRestart, n);
  work.basis.resize((m + 1) * n);
  work.hessenberg.resize((m + 1) * m);
  work.cosines.resize(m);
  work.sines.resize(m);
  work.rhs.resize(m + 1);
  work.work.resize(n);
  work.update.resize(n);
  const auto v = [&](std::size_t j) {
    return std::span<double>(work.basis.data() + j * n, n);
  };
  const auto h = [&](std::size_t row, std::size_t col) -> double& {
    return work.hessenberg[col * (m + 1) + row];
  };
  std::vector<double>& g = work.rhs;
  std::vector<double>& cs = work.cosines;
  std::vector<double>& sn = work.sines;

  // r = b − A x, kept in the first basis vector.
  const auto residual_into_v0 = [&] {
    const std::span<double> r = v(0);
    a.multiply(x, r);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = b[i] - r[i];
    }
    return norm2(r);
  };
  double beta = residual_into_v0();
  double rel = beta / b_norm;
  while (rel > tolerance && report.iterations < max_iter) {
    const double cycle_start = beta;
    scale(1.0 / beta, v(0));
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;
    std::size_t k = 0;
    bool breakdown = false;
    while (k < m && report.iterations < max_iter) {
      const std::span<double> w = v(k + 1);
      precondition(v(k), work.work);
      a.multiply(work.work, w);
      for (std::size_t i = 0; i <= k; ++i) {
        h(i, k) = dot(w, v(i));
        axpy(-h(i, k), v(i), w);
      }
      h(k + 1, k) = norm2(w);
      breakdown = h(k + 1, k) == 0.0;
      if (!breakdown) scale(1.0 / h(k + 1, k), w);
      for (std::size_t i = 0; i < k; ++i) {
        const double t = cs[i] * h(i, k) + sn[i] * h(i + 1, k);
        h(i + 1, k) = -sn[i] * h(i, k) + cs[i] * h(i + 1, k);
        h(i, k) = t;
      }
      const double denom = std::hypot(h(k, k), h(k + 1, k));
      if (denom == 0.0) {
        // A M⁻¹ is singular on the Krylov space: no further progress.
        report.relative_residual = rel;
        return report;
      }
      cs[k] = h(k, k) / denom;
      sn[k] = h(k + 1, k) / denom;
      h(k, k) = denom;
      h(k + 1, k) = 0.0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      ++k;
      ++report.iterations;
      if (breakdown || std::abs(g[k]) <= tolerance * b_norm) break;
    }
    // y = R⁻¹ g by back substitution, into g; then x += M⁻¹ (V y).
    for (std::size_t i = k; i-- > 0;) {
      double s = g[i];
      for (std::size_t j = i + 1; j < k; ++j) {
        s -= h(i, j) * g[j];
      }
      g[i] = s / h(i, i);
    }
    set_zero(work.update);
    for (std::size_t i = 0; i < k; ++i) {
      axpy(g[i], v(i), work.update);
    }
    precondition(work.update, work.work);
    axpy(1.0, work.work, x);
    beta = residual_into_v0();
    rel = beta / b_norm;
    // A stalled cycle: the next would restart from the same residual.
    if (beta >= cycle_start) break;
  }
  report.relative_residual = rel;
  report.converged = rel <= tolerance;
  return report;
}

}  // namespace gridse::sparse
