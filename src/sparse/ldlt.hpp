#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/symbolic_plan.hpp"

namespace gridse::sparse {

/// Sparse simplicial LDLᵀ factorization of a symmetric matrix (up-looking,
/// elimination-tree based). It is the direct solver of the solver ablation
/// and, through LdltPreconditioner, the default preconditioner of the WLS
/// PCG. One code path: a SymbolicPlan holds the ordering and the factor
/// pattern, detail::ldlt_numeric fills the factor and detail::ldlt_solve
/// applies it.
class SparseLdlt {
 public:
  /// Factor `a` (must be structurally and numerically symmetric) under an
  /// approximate minimum degree ordering: analyzes a fresh SymbolicPlan,
  /// then refactors over it. Throws `ConvergenceFailure` on a zero pivot.
  void factorize(const Csr& a);

  /// Numeric-only refactorization over a precomputed SymbolicPlan: ordering,
  /// permutation, and symbolic analysis are skipped entirely, and the factor
  /// buffers are reused across calls. The plan must have been analyzed on a
  /// matrix with `a`'s sparsity pattern (cheap size/nnz checks are applied;
  /// full fingerprint validation is the caller's — typically a
  /// SolverCache's — job). This is the hot path of repeated Gauss–Newton
  /// iterations on a fixed topology.
  void factorize(const Csr& a, std::shared_ptr<const SymbolicPlan> plan);

  /// Solve A x = b with the current factorization.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A x = b into `x` without allocating: the permuted work vector is
  /// owned by this factor, so one factor serves one solve at a time.
  void solve(std::span<const double> b, std::span<double> x);

  [[nodiscard]] bool factored() const { return plan_ != nullptr; }
  [[nodiscard]] std::size_t factor_nnz() const { return lx_.size(); }
  /// Smallest pivot of D; ≤ 0 means the factored matrix was not positive
  /// definite.
  [[nodiscard]] double min_pivot() const;

 private:
  // L's row indices and values in the plan's column layout (strict lower,
  // CSC, unit diagonal implicit), and the pivots D.
  std::vector<Index> li_;
  std::vector<double> lx_;
  std::vector<double> d_;
  std::shared_ptr<const SymbolicPlan> plan_;
  detail::LdltScratch scratch_;
  std::vector<double> work_;
};

}  // namespace gridse::sparse
