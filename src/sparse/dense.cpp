#include "sparse/dense.hpp"

#include <cmath>

#include "sparse/vector_ops.hpp"
#include "util/error.hpp"

namespace gridse::sparse {

void DenseMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  GRIDSE_CHECK(x.size() == cols_ && y.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += (*this)(r, c) * x[c];
    }
    y[r] = acc;
  }
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  GRIDSE_CHECK(cols_ == other.rows_);
  DenseMatrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

void DenseMatrix::cholesky_in_place() {
  GRIDSE_CHECK(rows_ == cols_);
  const std::size_t n = rows_;
  for (std::size_t j = 0; j < n; ++j) {
    double d = (*this)(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      d -= (*this)(j, k) * (*this)(j, k);
    }
    if (d <= 0.0) {
      throw ConvergenceFailure("dense Cholesky: matrix not positive definite at pivot " +
                               std::to_string(j));
    }
    const double ljj = std::sqrt(d);
    (*this)(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = (*this)(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        s -= (*this)(i, k) * (*this)(j, k);
      }
      (*this)(i, j) = s / ljj;
    }
    for (std::size_t c = j + 1; c < n; ++c) {
      (*this)(j, c) = 0.0;  // zero upper triangle for a clean L
    }
  }
}

std::vector<double> DenseMatrix::solve_spd(std::span<const double> b) const {
  GRIDSE_CHECK(rows_ == cols_ && b.size() == rows_);
  DenseMatrix l = *this;
  l.cholesky_in_place();
  const std::size_t n = rows_;
  std::vector<double> x(b.begin(), b.end());
  // forward: L y = b
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      x[i] -= l(i, k) * x[k];
    }
    x[i] /= l(i, i);
  }
  // backward: Lᵀ x = y
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    for (std::size_t k = i + 1; k < n; ++k) {
      x[i] -= l(k, i) * x[k];
    }
    x[i] /= l(i, i);
  }
  return x;
}

double DenseMatrix::condition_estimate_spd(int iterations) const {
  GRIDSE_CHECK(rows_ == cols_ && rows_ > 0);
  const std::size_t n = rows_;
  // power iteration for lambda_max
  std::vector<double> v(n, 1.0);
  std::vector<double> w(n);
  double lmax = 0.0;
  for (int it = 0; it < iterations; ++it) {
    multiply(v, w);
    lmax = norm2(w);
    if (lmax == 0.0) return 0.0;
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / lmax;
  }
  // inverse power iteration for lambda_min (reuses one Cholesky)
  DenseMatrix l = *this;
  l.cholesky_in_place();
  auto solve_with_l = [&](std::vector<double>& x) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < i; ++k) x[i] -= l(i, k) * x[k];
      x[i] /= l(i, i);
    }
    for (std::size_t ii = n; ii > 0; --ii) {
      const std::size_t i = ii - 1;
      for (std::size_t k = i + 1; k < n; ++k) x[i] -= l(k, i) * x[k];
      x[i] /= l(i, i);
    }
  };
  std::fill(v.begin(), v.end(), 1.0);
  double inv_norm = 1.0;
  for (int it = 0; it < iterations; ++it) {
    solve_with_l(v);
    inv_norm = norm2(v);
    if (inv_norm == 0.0) break;
    for (double& x : v) x /= inv_norm;
  }
  const double lmin = inv_norm > 0.0 ? 1.0 / inv_norm : 0.0;
  return lmin > 0.0 ? lmax / lmin : 0.0;
}

}  // namespace gridse::sparse
