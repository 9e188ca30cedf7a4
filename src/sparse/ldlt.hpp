#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/symbolic_plan.hpp"

namespace gridse::sparse {

/// Sparse supernodal LDLᵀ factorization of a symmetric matrix (left-looking
/// over the fundamental supernodes of a SymbolicPlan, dense kernels inside
/// each supernode's panel). The factor of a solve's first gain is the
/// preconditioner of the WLS PCG (paper §IV-C: "pre-multiplying the inverse
/// of a pre-conditioner matrix P"); it also solves the DC truth's B′ system
/// and the inverse-gain columns of bad-data analysis.
/// One code path: the plan holds the ordering and the supernode
/// partition with its row structures and panel layout; factorize fills the
/// panels and solve applies them.
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

  /// factorize(a, plan) into a positive definite factor, for use as a PCG
  /// preconditioner: a pivot ≤ 0 (a singular or indefinite A) is retried on
  /// A + shift·I with a shift that starts at 1e-8·max|diag(A)| and grows
  /// tenfold, at most 12 attempts. The shifted factor still preconditions
  /// the unshifted system. Returns the shift it needed (0 when A factored
  /// cleanly); throws `ConvergenceFailure` when every attempt fails.
  double factorize_with_shift(const Csr& a,
                              std::shared_ptr<const SymbolicPlan> plan);

  /// Solve A x = b with the current factorization.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A x = b into `x` without allocating: the permuted work vector is
  /// owned by this factor, so one factor serves one solve at a time.
  void solve(std::span<const double> b, std::span<double> x);

  [[nodiscard]] bool factored() const { return plan_ != nullptr; }
  /// Entries of the strict lower triangle of L (the structural count; the
  /// panels also hold each diagonal block's unused upper triangle).
  [[nodiscard]] std::size_t factor_nnz() const {
    return plan_ ? plan_->factor_nnz() : 0;
  }
  /// Smallest pivot of D; ≤ 0 means the factored matrix was not positive
  /// definite.
  [[nodiscard]] double min_pivot() const;

 private:
  /// A factored supernode waiting to update later ones: the next in its
  /// queue, and its first panel row not yet applied.
  struct Pending {
    Index next = -1;
    Index pos = 0;
  };
  /// Workspace of the numeric factorization, reused across calls.
  struct Scratch {
    std::vector<Index> relmap;      // row → position in the current panel
    std::vector<Index> head;        // supernode → first queued descendant
    std::vector<Pending> pending;   // per supernode
    std::vector<double> coef;       // two rows of L·D
    std::vector<double> update;     // two scattered update columns
  };

  void solve_permuted(std::span<const double> b, std::span<double> x,
                      std::span<double> work, std::span<double> gather) const;

  // The supernode panels, laid out by the plan: column-major, unit-lower L
  // with D on the diagonal of each leading square block.
  std::vector<double> lx_;
  std::vector<double> d_;
  std::shared_ptr<const SymbolicPlan> plan_;
  Scratch scratch_;
  std::vector<double> work_;
  std::vector<double> gather_;
};

}  // namespace gridse::sparse
