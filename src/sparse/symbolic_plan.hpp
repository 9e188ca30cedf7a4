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
  // FNV-1a over 32-bit words: one multiply per index, every index hashed.
  constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = kOffset;
  const auto mix = [&](Index v) {
    h ^= static_cast<std::uint32_t>(v);
    h *= kPrime;
  };
  for (const Index v : a.row_ptr()) mix(v);
  for (const Index v : a.col_idx()) mix(v);
  return {a.rows(), a.cols(), static_cast<std::uint64_t>(a.nnz()), h};
}

/// Everything about factoring a fixed sparsity pattern that does not depend
/// on the numeric values: the fill-reducing ordering, the symmetrically
/// permuted pattern with a gather map back into the source value array, and
/// the fundamental supernodes of the LDLᵀ factor (from its elimination tree)
/// with their row structures. Computed once per (subsystem, topology) and
/// reused across solves and DSE cycles; the fingerprint is the invalidation
/// token — a topology change alters the gain pattern, the fingerprint stops
/// matching, and the plan is rebuilt.
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
  /// Entries of the strict lower triangle of the structural factor L.
  [[nodiscard]] std::size_t factor_nnz() const { return factor_nnz_; }

  /// One fundamental supernode: a chain of the elimination tree whose
  /// columns share one row structure below the diagonal block, so its part
  /// of L is a dense panel. It owns the columns [first, first + width); its
  /// `rows` row indices start at super_rows()[row_begin] (its own columns,
  /// then the rows below the diagonal block, increasing); its panel of
  /// rows × width values starts at `value_offset` in the factor.
  struct Supernode {
    Index first = 0;
    Index width = 0;
    Index row_begin = 0;
    Index rows = 0;
    std::size_t value_offset = 0;
  };
  /// The supernodes in column order.
  [[nodiscard]] std::span<const Supernode> supernodes() const {
    return supernodes_;
  }
  [[nodiscard]] std::span<const Index> super_rows() const {
    return super_rows_;
  }
  /// Supernode owning each column.
  [[nodiscard]] std::span<const Index> col_super() const {
    return col_super_;
  }
  /// Values in all panels (the structural L, the pivots, and each diagonal
  /// block's unused upper triangle).
  [[nodiscard]] std::size_t panel_size() const { return panel_size_; }
  /// Most rows below any diagonal block.
  [[nodiscard]] Index max_below() const { return max_below_; }

 private:
  PatternFingerprint fp_;
  std::vector<Index> perm_;      // perm_[new] = old
  std::vector<Index> perm_inv_;  // perm_inv_[old] = new
  std::vector<Index> ap_ptr_;
  std::vector<Index> ap_col_;
  std::vector<Index> ap_map_;
  std::size_t factor_nnz_ = 0;
  std::vector<Supernode> supernodes_;
  std::vector<Index> super_rows_;
  std::vector<Index> col_super_;
  std::size_t panel_size_ = 0;
  Index max_below_ = 0;
};

}  // namespace gridse::sparse
