#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sparse/cg.hpp"
#include "sparse/csr.hpp"

namespace gridse::sparse {

/// Applies a preconditioner: z = M⁻¹ v.
using Preconditioner =
    std::function<void(std::span<const double> v, std::span<double> z)>;

/// The Krylov basis and Hessenberg storage of one GMRES, kept by a caller
/// that solves many systems of one size so that a solve allocates nothing.
struct GmresWorkspace {
  std::vector<double> basis;       // restart + 1 vectors of length n
  std::vector<double> hessenberg;  // (restart + 1) × restart, column-major
  std::vector<double> cosines;
  std::vector<double> sines;
  std::vector<double> rhs;         // the rotated ‖r‖e₁, then y
  std::vector<double> work;        // M⁻¹ v and A M⁻¹ v
  std::vector<double> update;
};

/// Right-preconditioned restarted GMRES(50) for a general square `a`
/// (Saad & Schultz 1986), stopped when ‖b − Ax‖₂ ≤ tolerance · ‖b‖₂, after
/// a cycle that leaves ‖b − Ax‖₂ no smaller than it began (a stall), or
/// after one Arnoldi step per unknown over all cycles. Each cycle minimizes
/// ‖b − A M⁻¹u‖ over the Krylov space of A M⁻¹ by Arnoldi with modified
/// Gram–Schmidt and Givens rotations, then adds M⁻¹u to `x` (its incoming
/// content is the initial guess). Right preconditioning leaves the minimized residual the true
/// one, so the stop reads ‖b − Ax‖ itself: each cycle ends by recomputing
/// it, and a cycle whose Arnoldi estimate met the tolerance while the true
/// residual did not restarts from the true one.
CgReport gmres(const Csr& a, std::span<const double> b, std::span<double> x,
               const Preconditioner& precondition, GmresWorkspace& work,
               double tolerance);

}  // namespace gridse::sparse
