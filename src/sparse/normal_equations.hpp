#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/symbolic_plan.hpp"

namespace gridse::sparse {

/// Gain-matrix assembly for weighted least squares: G = Hᵀ W H where W is
/// diagonal (measurement weights). G is the symmetric positive-definite
/// matrix the paper's PCG solver targets (§IV-C, "Ax = b where the matrix A
/// is the symmetric positive-definite gain matrix").
Csr normal_matrix(const Csr& h, std::span<const double> weights);

/// Right-hand side of the normal equations: g = Hᵀ W r.
std::vector<double> normal_rhs(const Csr& h, std::span<const double> weights,
                               std::span<const double> residual);

/// G' = G + alpha I, on G's pattern plus a full diagonal: the shifted gain
/// SparseLdlt::factorize_with_shift retries with when a pivot breaks down.
Csr add_diagonal(const Csr& g, double alpha);

/// Symbolic reuse for the gain assembly: the pattern of G = Hᵀ W H is fixed
/// by the pattern of H (measurement structure), so the per-entry target
/// offsets of the outer-product accumulation can be computed once and the
/// numeric assembly becomes a single scatter pass — no triplets, no sort.
/// This is the dominant per-iteration cost normal_matrix pays on every
/// Gauss–Newton step of an unchanged topology.
///
/// The assembled G always carries a structural diagonal (explicit zeros
/// where H leaves a column untouched), so the diagonal shift the LDLᵀ
/// breakdown retry adds (add_diagonal) keeps the gain on its cached plan.
class NormalAssembler {
 public:
  [[nodiscard]] static NormalAssembler analyze(const Csr& h);

  /// Fingerprint of the H pattern this assembler was analyzed on.
  [[nodiscard]] const PatternFingerprint& fingerprint() const { return fp_; }
  [[nodiscard]] bool matches(const Csr& h) const {
    return fingerprint_pattern(h) == fp_;
  }

  /// G's value slot of each (row, i, j) term of the outer-product
  /// accumulation Σ_row w h_iᵀ h_j, in the order assemble() adds them.
  [[nodiscard]] std::span<const Index> targets() const { return target_; }

  /// G = Hᵀ W H. `h` must match the analyzed pattern (cheap size/nnz
  /// checks applied).
  [[nodiscard]] Csr assemble(const Csr& h,
                             std::span<const double> weights) const;

  /// As above, refilling the values of `g` — an earlier assemble() of this
  /// assembler — in place.
  void assemble(const Csr& h, std::span<const double> weights, Csr& g) const;

 private:
  /// G's values into `gvals` (size nnz(G)), overwriting them.
  void fill(const Csr& h, std::span<const double> weights,
            std::span<double> gvals) const;

  PatternFingerprint fp_;
  Index dim_ = 0;
  std::vector<Index> g_ptr_;
  std::vector<Index> g_col_;
  /// Value slot in G for each (row, i, j) pair of the outer-product loop,
  /// in iteration order.
  std::vector<Index> target_;
};

}  // namespace gridse::sparse
