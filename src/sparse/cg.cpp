#include "sparse/cg.hpp"

#include <cmath>

#include "sparse/vector_ops.hpp"
#include "util/error.hpp"

namespace gridse::sparse {

CgReport pcg(const Csr& a, std::span<const double> b, std::span<double> x,
             SparseLdlt& m, const CgOptions& options) {
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

  const int max_iter =
      options.max_iterations > 0 ? options.max_iterations : static_cast<int>(n);

  Vec r(n);
  Vec z(n);
  Vec p(n);
  Vec ap(n);

  // r = b - A x
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - r[i];
  }
  m.solve(r, z);
  copy(z, p);
  double rz = dot(r, z);

  double rel = norm2(r) / b_norm;
  for (int it = 0; it < max_iter && rel > options.tolerance; ++it) {
    a.multiply(p, ap);
    const double p_ap = dot(p, ap);
    GRIDSE_CHECK_MSG(p_ap > 0.0, "PCG: matrix is not positive definite");
    const double alpha = rz / p_ap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    m.solve(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = z[i] + beta * p[i];
    }
    rz = rz_new;
    rel = norm2(r) / b_norm;
    report.iterations = it + 1;
  }
  report.relative_residual = rel;
  report.converged = rel <= options.tolerance;
  return report;
}

}  // namespace gridse::sparse
