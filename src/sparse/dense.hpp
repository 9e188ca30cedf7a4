#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gridse::sparse {

/// Small dense row-major matrix: the reference the sparse kernels' tests and
/// bench_pcg_solvers compare against. Nothing in the estimation cycle uses
/// it.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> data() const { return data_; }

  /// y = A x
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// C = A B
  [[nodiscard]] DenseMatrix multiply(const DenseMatrix& other) const;

  [[nodiscard]] DenseMatrix transpose() const;

  /// In-place Cholesky factorization A = L Lᵀ (lower triangle overwritten).
  /// Throws `ConvergenceFailure` if A is not positive definite.
  void cholesky_in_place();

  /// Solve A x = b for SPD A via Cholesky (A untouched; returns x).
  [[nodiscard]] std::vector<double> solve_spd(std::span<const double> b) const;

  /// Largest and smallest eigenvalue estimates of an SPD matrix by power
  /// iteration (on A and on A⁻¹ via solve); used to report condition numbers
  /// in the preconditioning ablation.
  [[nodiscard]] double condition_estimate_spd(int iterations = 60) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace gridse::sparse
