#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/ldlt.hpp"

namespace gridse::sparse {

/// Options for the preconditioned conjugate gradient solver.
struct CgOptions {
  /// Relative residual tolerance: stop when ‖b − Ax‖₂ ≤ tol · ‖b‖₂.
  double tolerance = 1e-10;
  /// Hard iteration cap; 0 means "dimension of the system".
  int max_iterations = 0;
};

/// Outcome of an iterative solve.
struct CgReport {
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0.0;
};

/// Preconditioned conjugate gradient for SPD `a`, preconditioned by the
/// LDLᵀ factor `m` of `a` or of a nearby matrix of the same dimension
/// (`m` solves in its own work space, so one factor serves one PCG at a
/// time). Solution is accumulated in `x` (its incoming content is the
/// initial guess). This is the solver the paper's HPC state estimation
/// uses for the gain-matrix system (§IV-C).
CgReport pcg(const Csr& a, std::span<const double> b, std::span<double> x,
             SparseLdlt& m, const CgOptions& options = {});

}  // namespace gridse::sparse
