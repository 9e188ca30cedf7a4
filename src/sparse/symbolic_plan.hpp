#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace gridse::sparse {

/// Cheap structural identity of a sparse matrix: dimensions, entry count,
/// and an FNV-1a hash over row_ptr/col_idx. Two matrices with equal
/// fingerprints share a sparsity pattern for every practical purpose, so a
/// SymbolicPlan keyed on the fingerprint can be revalidated in O(1) per
/// solve instead of re-walking the pattern.
struct PatternFingerprint {
  Index n = 0;
  Index cols = 0;
  std::uint64_t nnz = 0;
  std::uint64_t hash = 0;

  friend bool operator==(const PatternFingerprint& a,
                         const PatternFingerprint& b) {
    return a.n == b.n && a.cols == b.cols && a.nnz == b.nnz &&
           a.hash == b.hash;
  }
  friend bool operator!=(const PatternFingerprint& a,
                         const PatternFingerprint& b) {
    return !(a == b);
  }
};

template <typename T>
PatternFingerprint fingerprint_pattern(const CsrMatrix<T>& a) {
  constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = kOffset;
  const auto mix = [&](Index v) {
    auto u = static_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffU;
      h *= kPrime;
    }
  };
  for (const Index v : a.row_ptr()) mix(v);
  for (const Index v : a.col_idx()) mix(v);
  return {a.rows(), a.cols(), static_cast<std::uint64_t>(a.nnz()), h};
}

/// Everything about factoring a fixed sparsity pattern that does not depend
/// on the numeric values: the fill-reducing ordering, the symmetrically
/// permuted pattern with a gather map back into the source value array, and
/// the elimination tree and LDLᵀ column pointers. Computed once per
/// (subsystem, topology) and reused across solves and DSE cycles; the
/// fingerprint is the invalidation token — a topology change alters the
/// gain pattern, the fingerprint stops matching, and the plan is rebuilt.
class SymbolicPlan {
 public:
  /// Analyze the pattern of symmetric matrix `a` under an approximate
  /// minimum degree ordering.
  [[nodiscard]] static SymbolicPlan analyze(const Csr& a);

  [[nodiscard]] const PatternFingerprint& fingerprint() const { return fp_; }
  [[nodiscard]] Index dim() const { return fp_.n; }

  /// True iff `a` has the pattern this plan was analyzed on.
  [[nodiscard]] bool matches(const Csr& a) const {
    return fingerprint_pattern(a) == fp_;
  }

  [[nodiscard]] std::span<const Index> perm() const { return perm_; }
  [[nodiscard]] std::span<const Index> perm_inv() const { return perm_inv_; }
  /// CSR structure of B = P A Pᵀ (rows column-sorted).
  [[nodiscard]] std::span<const Index> permuted_row_ptr() const {
    return ap_ptr_;
  }
  [[nodiscard]] std::span<const Index> permuted_col_idx() const {
    return ap_col_;
  }
  /// value_map()[p] is the offset in a.values() holding B's p-th entry, so a
  /// numeric refactorization gathers values without rebuilding triplets.
  [[nodiscard]] std::span<const Index> value_map() const { return ap_map_; }
  /// Elimination tree over the permuted pattern (-1 = root).
  [[nodiscard]] std::span<const Index> etree() const { return parent_; }
  /// Column pointers of the LDLᵀ factor L (strict lower, CSC).
  [[nodiscard]] std::span<const Index> l_col_ptr() const { return lp_; }
  [[nodiscard]] std::size_t factor_nnz() const {
    return lp_.empty() ? 0 : static_cast<std::size_t>(lp_.back());
  }

 private:
  PatternFingerprint fp_;
  std::vector<Index> perm_;      // perm_[new] = old
  std::vector<Index> perm_inv_;  // perm_inv_[old] = new
  std::vector<Index> ap_ptr_;
  std::vector<Index> ap_col_;
  std::vector<Index> ap_map_;
  std::vector<Index> parent_;
  std::vector<Index> lp_;
};

namespace detail {

/// Scratch arrays for the plan-driven numeric LDLᵀ kernel, reusable across
/// factorizations.
struct LdltScratch {
  std::vector<double> y;
  std::vector<Index> pattern;
  std::vector<Index> flag;
  std::vector<Index> lnz;

  void resize(Index n);
};

/// Numeric up-looking LDLᵀ over a precomputed SymbolicPlan: gathers the
/// permuted values of `a` through the plan's value map and fills `li`, `lx`
/// (sized plan.factor_nnz()) and `d` (sized plan.dim()). No allocation.
/// Throws ConvergenceFailure on a zero pivot.
void ldlt_numeric(const SymbolicPlan& plan, const Csr& a, std::span<Index> li,
                  std::span<double> lx, std::span<double> d,
                  LdltScratch& scratch);

/// Solve A x = b with a factor produced by ldlt_numeric. `work` must have
/// plan.dim() doubles; b and x may not alias work.
void ldlt_solve(const SymbolicPlan& plan, std::span<const Index> li,
                std::span<const double> lx, std::span<const double> d,
                std::span<const double> b, std::span<double> x,
                std::span<double> work);

}  // namespace detail

}  // namespace gridse::sparse
