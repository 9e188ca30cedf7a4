#include "sparse/symbolic_plan.hpp"

#include <algorithm>

#include "sparse/ordering.hpp"
#include "util/error.hpp"

namespace gridse::sparse {

SymbolicPlan SymbolicPlan::analyze(const Csr& a) {
  GRIDSE_CHECK(a.rows() == a.cols());
  const Index n = a.rows();
  const auto col = a.col_idx();

  SymbolicPlan plan;
  plan.fp_ = fingerprint_pattern(a);
  plan.perm_ = approximate_minimum_degree(a);
  plan.perm_inv_ = invert_permutation(plan.perm_);

  // --- permuted pattern B = P A Pᵀ with a value gather map ------------------
  // B(inv[r], inv[c]) = A(r, c). Counting sort into rows, then sort each row
  // by column carrying the source offset along — done once here so numeric
  // refactorizations never touch triplets again.
  plan.ap_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index r = 0; r < n; ++r) {
    const auto [b, e] = a.row_range(r);
    plan.ap_ptr_[static_cast<std::size_t>(
        plan.perm_inv_[static_cast<std::size_t>(r)]) + 1] += e - b;
  }
  for (Index i = 0; i < n; ++i) {
    plan.ap_ptr_[static_cast<std::size_t>(i) + 1] +=
        plan.ap_ptr_[static_cast<std::size_t>(i)];
  }
  plan.ap_col_.resize(a.nnz());
  plan.ap_map_.resize(a.nnz());
  {
    std::vector<Index> next(plan.ap_ptr_.begin(), plan.ap_ptr_.end() - 1);
    for (Index r = 0; r < n; ++r) {
      const Index nr = plan.perm_inv_[static_cast<std::size_t>(r)];
      const auto [b, e] = a.row_range(r);
      for (Index k = b; k < e; ++k) {
        const Index slot = next[static_cast<std::size_t>(nr)]++;
        plan.ap_col_[static_cast<std::size_t>(slot)] =
            plan.perm_inv_[static_cast<std::size_t>(
                col[static_cast<std::size_t>(k)])];
        plan.ap_map_[static_cast<std::size_t>(slot)] = k;
      }
    }
    std::vector<std::pair<Index, Index>> row;
    for (Index i = 0; i < n; ++i) {
      const Index b = plan.ap_ptr_[static_cast<std::size_t>(i)];
      const Index e = plan.ap_ptr_[static_cast<std::size_t>(i) + 1];
      row.clear();
      for (Index k = b; k < e; ++k) {
        row.emplace_back(plan.ap_col_[static_cast<std::size_t>(k)],
                         plan.ap_map_[static_cast<std::size_t>(k)]);
      }
      std::sort(row.begin(), row.end());
      for (Index k = b; k < e; ++k) {
        plan.ap_col_[static_cast<std::size_t>(k)] =
            row[static_cast<std::size_t>(k - b)].first;
        plan.ap_map_[static_cast<std::size_t>(k)] =
            row[static_cast<std::size_t>(k - b)].second;
      }
    }
  }

  // --- elimination tree and per-column factor counts over B -----------------
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> lnz(static_cast<std::size_t>(n), 0);
  std::vector<Index> flag(static_cast<std::size_t>(n), -1);
  for (Index k = 0; k < n; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    const Index b = plan.ap_ptr_[static_cast<std::size_t>(k)];
    const Index e = plan.ap_ptr_[static_cast<std::size_t>(k) + 1];
    for (Index p = b; p < e; ++p) {
      Index i = plan.ap_col_[static_cast<std::size_t>(p)];
      if (i >= k) break;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        if (parent[static_cast<std::size_t>(i)] == -1) {
          parent[static_cast<std::size_t>(i)] = k;
        }
        ++lnz[static_cast<std::size_t>(i)];
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  for (const Index c : lnz) plan.factor_nnz_ += static_cast<std::size_t>(c);

  // --- fundamental supernodes -----------------------------------------------
  // Column j joins j-1's supernode iff j is j-1's parent, j-1 is j's only
  // child, and j's column is j-1's minus its diagonal row. No relaxed
  // amalgamation: the panels then hold exactly the structural L.
  std::vector<Index> children(static_cast<std::size_t>(n), 0);
  for (Index j = 0; j < n; ++j) {
    const Index p = parent[static_cast<std::size_t>(j)];
    if (p >= 0) ++children[static_cast<std::size_t>(p)];
  }
  plan.col_super_.resize(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    const bool extends = j > 0 && parent[uj - 1] == j &&
                         children[uj] == 1 && lnz[uj - 1] == lnz[uj] + 1;
    if (extends) {
      ++plan.supernodes_.back().width;
    } else {
      plan.supernodes_.push_back({j, 1, 0, 0, 0});
    }
    plan.col_super_[uj] = static_cast<Index>(plan.supernodes_.size()) - 1;
  }
  // Row counts and offsets: the last column's structure is the rows below
  // the diagonal block.
  Index row_begin = 0;
  for (Supernode& sn : plan.supernodes_) {
    const Index last = sn.first + sn.width - 1;
    sn.row_begin = row_begin;
    sn.rows = sn.width + lnz[static_cast<std::size_t>(last)];
    sn.value_offset = plan.panel_size_;
    row_begin += sn.rows;
    plan.panel_size_ +=
        static_cast<std::size_t>(sn.rows) * static_cast<std::size_t>(sn.width);
    plan.max_below_ = std::max(plan.max_below_, sn.rows - sn.width);
  }

  // Row structure of each supernode: its columns, then the union of A's
  // entries below the diagonal block and its child supernodes' rows beyond
  // its last column. Children precede parents in column order.
  const auto ns = plan.supernodes_.size();
  plan.super_rows_.resize(static_cast<std::size_t>(row_begin));
  std::vector<Index> child_head(ns, -1);
  std::vector<Index> child_next(ns, -1);
  std::fill(flag.begin(), flag.end(), -1);
  for (std::size_t s = 0; s < ns; ++s) {
    const Supernode& sn = plan.supernodes_[s];
    const Index last = sn.first + sn.width - 1;
    auto out = plan.super_rows_.begin() + sn.row_begin;
    for (Index j = sn.first; j <= last; ++j) *out++ = j;
    const auto below_begin = out;
    const auto add = [&](Index i) {
      if (i > last && flag[static_cast<std::size_t>(i)] !=
                          static_cast<Index>(s)) {
        flag[static_cast<std::size_t>(i)] = static_cast<Index>(s);
        *out++ = i;
      }
    };
    for (Index j = sn.first; j <= last; ++j) {
      const Index e = plan.ap_ptr_[static_cast<std::size_t>(j) + 1];
      for (Index p = e - 1; p >= plan.ap_ptr_[static_cast<std::size_t>(j)];
           --p) {
        const Index i = plan.ap_col_[static_cast<std::size_t>(p)];
        if (i <= last) break;
        add(i);
      }
    }
    for (Index c = child_head[s]; c >= 0;
         c = child_next[static_cast<std::size_t>(c)]) {
      const Supernode& cn = plan.supernodes_[static_cast<std::size_t>(c)];
      for (Index p = cn.row_begin + cn.width; p < cn.row_begin + cn.rows;
           ++p) {
        add(plan.super_rows_[static_cast<std::size_t>(p)]);
      }
    }
    std::sort(below_begin, out);
    GRIDSE_CHECK(out == plan.super_rows_.begin() + sn.row_begin + sn.rows);
    const Index up = parent[static_cast<std::size_t>(last)];
    if (up >= 0) {
      const auto ps = static_cast<std::size_t>(
          plan.col_super_[static_cast<std::size_t>(up)]);
      child_next[s] = child_head[ps];
      child_head[ps] = static_cast<Index>(s);
    }
  }
  return plan;
}

}  // namespace gridse::sparse
