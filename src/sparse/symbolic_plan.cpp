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
  plan.parent_.assign(static_cast<std::size_t>(n), -1);
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
           i = plan.parent_[static_cast<std::size_t>(i)]) {
        if (plan.parent_[static_cast<std::size_t>(i)] == -1) {
          plan.parent_[static_cast<std::size_t>(i)] = k;
        }
        ++lnz[static_cast<std::size_t>(i)];
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  plan.lp_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index k = 0; k < n; ++k) {
    plan.lp_[static_cast<std::size_t>(k) + 1] =
        plan.lp_[static_cast<std::size_t>(k)] + lnz[static_cast<std::size_t>(k)];
  }
  return plan;
}

namespace detail {

void LdltScratch::resize(Index n) {
  const auto un = static_cast<std::size_t>(n);
  if (y.size() < un) {
    y.assign(un, 0.0);
    pattern.resize(un);
    flag.resize(un);
    lnz.resize(un);
  }
}

void ldlt_numeric(const SymbolicPlan& plan, const Csr& a, std::span<Index> li,
                  std::span<double> lx, std::span<double> d,
                  LdltScratch& scratch) {
  const Index n = plan.dim();
  GRIDSE_CHECK(a.rows() == n && a.cols() == n);
  GRIDSE_CHECK(static_cast<std::uint64_t>(a.nnz()) == plan.fingerprint().nnz);
  GRIDSE_CHECK(li.size() == plan.factor_nnz() && lx.size() == li.size() &&
               static_cast<Index>(d.size()) == n);
  scratch.resize(n);
  const auto ap = plan.permuted_row_ptr();
  const auto ac = plan.permuted_col_idx();
  const auto amap = plan.value_map();
  const auto parent = plan.etree();
  const auto lp = plan.l_col_ptr();
  const auto aval = a.values();

  std::span<double> y(scratch.y.data(), static_cast<std::size_t>(n));
  std::span<Index> pattern(scratch.pattern.data(), static_cast<std::size_t>(n));
  std::span<Index> flag(scratch.flag.data(), static_cast<std::size_t>(n));
  std::span<Index> lnz(scratch.lnz.data(), static_cast<std::size_t>(n));
  std::fill(flag.begin(), flag.end(), -1);
  std::fill(lnz.begin(), lnz.end(), 0);
  std::fill(y.begin(), y.end(), 0.0);

  for (Index k = 0; k < n; ++k) {
    Index top = n;
    flag[static_cast<std::size_t>(k)] = k;
    const Index b = ap[static_cast<std::size_t>(k)];
    const Index e = ap[static_cast<std::size_t>(k) + 1];
    double akk = 0.0;
    for (Index p = b; p < e; ++p) {
      const Index i = ac[static_cast<std::size_t>(p)];
      if (i > k) break;
      const double v = aval[static_cast<std::size_t>(
          amap[static_cast<std::size_t>(p)])];
      if (i == k) {
        akk = v;
        continue;
      }
      y[static_cast<std::size_t>(i)] += v;
      Index len = 0;
      Index node = i;
      for (; flag[static_cast<std::size_t>(node)] != k;
           node = parent[static_cast<std::size_t>(node)]) {
        pattern[static_cast<std::size_t>(len++)] = node;
        flag[static_cast<std::size_t>(node)] = k;
      }
      while (len > 0) {
        pattern[static_cast<std::size_t>(--top)] =
            pattern[static_cast<std::size_t>(--len)];
      }
    }
    d[static_cast<std::size_t>(k)] = akk;
    for (Index t = top; t < n; ++t) {
      const Index i = pattern[static_cast<std::size_t>(t)];
      const double yi = y[static_cast<std::size_t>(i)];
      y[static_cast<std::size_t>(i)] = 0.0;
      const Index pb = lp[static_cast<std::size_t>(i)];
      const Index pe = pb + lnz[static_cast<std::size_t>(i)];
      for (Index p = pb; p < pe; ++p) {
        y[static_cast<std::size_t>(li[static_cast<std::size_t>(p)])] -=
            lx[static_cast<std::size_t>(p)] * yi;
      }
      const double lki = yi / d[static_cast<std::size_t>(i)];
      d[static_cast<std::size_t>(k)] -= lki * yi;
      li[static_cast<std::size_t>(pe)] = k;
      lx[static_cast<std::size_t>(pe)] = lki;
      ++lnz[static_cast<std::size_t>(i)];
    }
    if (d[static_cast<std::size_t>(k)] == 0.0) {
      throw ConvergenceFailure("sparse LDLt: zero pivot at column " +
                               std::to_string(k));
    }
  }
}

void ldlt_solve(const SymbolicPlan& plan, std::span<const Index> li,
                std::span<const double> lx, std::span<const double> d,
                std::span<const double> b, std::span<double> x,
                std::span<double> work) {
  const Index n = plan.dim();
  GRIDSE_CHECK(static_cast<Index>(b.size()) == n &&
               static_cast<Index>(x.size()) == n &&
               static_cast<Index>(work.size()) == n);
  const auto perm = plan.perm();
  const auto lp = plan.l_col_ptr();
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    work[i] = b[static_cast<std::size_t>(perm[i])];
  }
  for (Index j = 0; j < n; ++j) {
    const double wj = work[static_cast<std::size_t>(j)];
    for (Index p = lp[static_cast<std::size_t>(j)];
         p < lp[static_cast<std::size_t>(j) + 1]; ++p) {
      work[static_cast<std::size_t>(li[static_cast<std::size_t>(p)])] -=
          lx[static_cast<std::size_t>(p)] * wj;
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    work[i] /= d[i];
  }
  for (Index j = n - 1; j >= 0; --j) {
    double wj = work[static_cast<std::size_t>(j)];
    for (Index p = lp[static_cast<std::size_t>(j)];
         p < lp[static_cast<std::size_t>(j) + 1]; ++p) {
      wj -= lx[static_cast<std::size_t>(p)] *
            work[static_cast<std::size_t>(li[static_cast<std::size_t>(p)])];
    }
    work[static_cast<std::size_t>(j)] = wj;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    x[static_cast<std::size_t>(perm[i])] = work[i];
  }
}

}  // namespace detail

}  // namespace gridse::sparse
