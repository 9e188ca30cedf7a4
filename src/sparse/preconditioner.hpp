#pragma once

#include <memory>
#include <span>

#include "sparse/csr.hpp"
#include "sparse/ldlt.hpp"

namespace gridse::sparse {

/// The PCG preconditioner (paper §IV-C: "pre-multiplying the inverse of a
/// pre-conditioner matrix P"): the exact LDLᵀ factor of one matrix A
/// (AMD-ordered, over a SymbolicPlan), applied as M = A. PCG on A itself
/// then converges in one step, and on a nearby matrix of the same dimension
/// in a few: WLS factors the gain of a solve's first Gauss–Newton iteration
/// and keeps the factor for the later, slightly moved gains. A pivot ≤ 0 (a
/// singular or indefinite A) is retried on A + shift·I with a shift that
/// starts at 1e-8·max|diag(A)| and grows tenfold; the shifted factor is
/// still a preconditioner, and PCG still solves the unshifted system.
class LdltPreconditioner {
 public:
  /// Factor `a` over a fresh plan.
  explicit LdltPreconditioner(const Csr& a);
  /// Factor `a` over `plan`, which must have been analyzed on a's pattern
  /// (a SolverCache lookup).
  LdltPreconditioner(const Csr& a, std::shared_ptr<const SymbolicPlan> plan);

  /// z = M⁻¹ r: two triangular solves, no allocation. Sizes must equal the
  /// matrix dimension.
  void apply(std::span<const double> r, std::span<double> z) const;

  /// Diagonal shift that was required for positive pivots (0 when A
  /// factored cleanly).
  [[nodiscard]] double shift() const { return shift_; }

 private:
  bool try_factorize(const Csr& a,
                     const std::shared_ptr<const SymbolicPlan>& plan,
                     double shift);

  // apply() is logically const but solves in the factor's own work space.
  mutable SparseLdlt factor_;
  double shift_ = 0.0;
};

}  // namespace gridse::sparse
