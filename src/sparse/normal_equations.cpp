#include "sparse/normal_equations.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace gridse::sparse {

Csr normal_matrix(const Csr& h, std::span<const double> weights) {
  GRIDSE_CHECK(static_cast<Index>(weights.size()) == h.rows());
  // Outer-product accumulation: G = sum_k w_k h_kᵀ h_k over measurement rows.
  // Row sparsity of H is tiny (a handful of incident buses per measurement),
  // so the triplet count stays modest and from_triplets's duplicate folding
  // finishes the job.
  std::vector<Triplet<double>> triplets;
  const auto col = h.col_idx();
  const auto val = h.values();
  for (Index r = 0; r < h.rows(); ++r) {
    const auto [b, e] = h.row_range(r);
    const double w = weights[static_cast<std::size_t>(r)];
    for (Index i = b; i < e; ++i) {
      for (Index j = b; j < e; ++j) {
        triplets.push_back({col[static_cast<std::size_t>(i)],
                            col[static_cast<std::size_t>(j)],
                            w * val[static_cast<std::size_t>(i)] *
                                val[static_cast<std::size_t>(j)]});
      }
    }
  }
  return Csr::from_triplets(h.cols(), h.cols(), std::move(triplets));
}

std::vector<double> normal_rhs(const Csr& h, std::span<const double> weights,
                               std::span<const double> residual) {
  GRIDSE_CHECK(static_cast<Index>(weights.size()) == h.rows());
  GRIDSE_CHECK(static_cast<Index>(residual.size()) == h.rows());
  std::vector<double> weighted(residual.size());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    weighted[i] = weights[i] * residual[i];
  }
  std::vector<double> out(static_cast<std::size_t>(h.cols()));
  h.multiply_transpose(weighted, out);
  return out;
}

NormalAssembler NormalAssembler::analyze(const Csr& h) {
  NormalAssembler out;
  out.fp_ = fingerprint_pattern(h);
  out.dim_ = h.cols();
  const auto ix = [](Index i) { return static_cast<std::size_t>(i); };
  const std::size_t dim = ix(out.dim_);
  const std::size_t rows = ix(h.rows());
  const auto ptr = h.row_ptr();
  const auto col = h.col_idx();

  // Hᵀ as entry indices: for each column, the H entries in it (entry and
  // row), in row order.
  std::vector<Index> t_ptr(dim + 1, 0);
  for (const Index c : col) ++t_ptr[ix(c) + 1];
  for (std::size_t c = 0; c < dim; ++c) t_ptr[c + 1] += t_ptr[c];
  std::vector<Index> t_entry(col.size());
  std::vector<Index> t_row(col.size());
  {
    std::vector<Index> next(t_ptr.begin(), t_ptr.end() - 1);
    for (std::size_t r = 0; r < rows; ++r) {
      for (Index k = ptr[r]; k < ptr[r + 1]; ++k) {
        const std::size_t slot = ix(next[ix(col[ix(k)])]++);
        t_entry[slot] = k;
        t_row[slot] = static_cast<Index>(r);
      }
    }
  }

  // Pattern of G: row c is c itself (a full structural diagonal, explicit
  // zeros where H leaves a column untouched, so a diagonally shifted gain
  // keeps the pattern and its cached factorization plan) plus every column
  // of every H row touching c, gathered unsorted under a marker. G's
  // pattern is symmetric, so one counting-sort transpose sorts its rows.
  std::vector<Index> mark(dim, -1);
  std::vector<Index> u_ptr(dim + 1, 0);
  std::vector<Index> u_col;
  u_col.reserve(dim + col.size());
  for (std::size_t c = 0; c < dim; ++c) {
    const auto ci = static_cast<Index>(c);
    mark[c] = ci;
    u_col.push_back(ci);
    for (Index t = t_ptr[c]; t < t_ptr[c + 1]; ++t) {
      const std::size_t r = ix(t_row[ix(t)]);
      for (Index k = ptr[r]; k < ptr[r + 1]; ++k) {
        const Index j = col[ix(k)];
        if (mark[ix(j)] != ci) {
          mark[ix(j)] = ci;
          u_col.push_back(j);
        }
      }
    }
    u_ptr[c + 1] = static_cast<Index>(u_col.size());
  }
  out.g_ptr_.assign(dim + 1, 0);
  for (const Index j : u_col) ++out.g_ptr_[ix(j) + 1];
  for (std::size_t c = 0; c < dim; ++c) out.g_ptr_[c + 1] += out.g_ptr_[c];
  out.g_col_.resize(u_col.size());
  {
    std::vector<Index> next(out.g_ptr_.begin(), out.g_ptr_.end() - 1);
    for (std::size_t c = 0; c < dim; ++c) {
      for (Index p = u_ptr[c]; p < u_ptr[c + 1]; ++p) {
        out.g_col_[ix(next[ix(u_col[ix(p)])]++)] = static_cast<Index>(c);
      }
    }
  }

  // Targets, in the (row, i, j) order fill() walks, G row by G row: the
  // row's slots go under the marker once, and each H entry (r, i) in that
  // column writes the slots of its row's (i, j) pairs.
  std::vector<std::size_t> t_start(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = ix(ptr[r + 1] - ptr[r]);
    t_start[r + 1] = t_start[r] + len * len;
  }
  out.target_.resize(t_start[rows]);
  std::vector<Index>& slot_of = mark;
  for (std::size_t gi = 0; gi < dim; ++gi) {
    for (Index p = out.g_ptr_[gi]; p < out.g_ptr_[gi + 1]; ++p) {
      slot_of[ix(out.g_col_[ix(p)])] = p;
    }
    for (Index t = t_ptr[gi]; t < t_ptr[gi + 1]; ++t) {
      const std::size_t r = ix(t_row[ix(t)]);
      const Index b = ptr[r];
      const std::size_t len = ix(ptr[r + 1] - b);
      Index* dst =
          out.target_.data() + t_start[r] + ix(t_entry[ix(t)] - b) * len;
      for (Index j = b; j < ptr[r + 1]; ++j) {
        *dst++ = slot_of[ix(col[ix(j)])];
      }
    }
  }
  return out;
}

Csr NormalAssembler::assemble(const Csr& h,
                              std::span<const double> weights) const {
  std::vector<double> gvals(g_col_.size());
  fill(h, weights, gvals);
  return Csr::from_parts(dim_, dim_, g_ptr_, g_col_, std::move(gvals));
}

void NormalAssembler::assemble(const Csr& h, std::span<const double> weights,
                               Csr& g) const {
  GRIDSE_CHECK_MSG(g.rows() == dim_ && g.nnz() == g_col_.size(),
                   "NormalAssembler: G is not this assembler's pattern");
  fill(h, weights, g.mutable_values());
}

void NormalAssembler::fill(const Csr& h, std::span<const double> weights,
                           std::span<double> gvals) const {
  GRIDSE_CHECK(static_cast<Index>(weights.size()) == h.rows());
  GRIDSE_CHECK_MSG(h.cols() == dim_ &&
                       static_cast<std::uint64_t>(h.nnz()) == fp_.nnz,
                   "NormalAssembler: H does not match the analyzed pattern");
  std::fill(gvals.begin(), gvals.end(), 0.0);
  const auto val = h.values();
  std::size_t t = 0;
  for (Index r = 0; r < h.rows(); ++r) {
    const auto [b, e] = h.row_range(r);
    const double w = weights[static_cast<std::size_t>(r)];
    for (Index i = b; i < e; ++i) {
      const double wi = w * val[static_cast<std::size_t>(i)];
      for (Index j = b; j < e; ++j) {
        gvals[static_cast<std::size_t>(target_[t++])] +=
            wi * val[static_cast<std::size_t>(j)];
      }
    }
  }
}

Csr add_diagonal(const Csr& g, double alpha) {
  GRIDSE_CHECK(g.rows() == g.cols());
  std::vector<Triplet<double>> triplets;
  triplets.reserve(g.nnz() + static_cast<std::size_t>(g.rows()));
  const auto col = g.col_idx();
  const auto val = g.values();
  for (Index r = 0; r < g.rows(); ++r) {
    const auto [b, e] = g.row_range(r);
    for (Index k = b; k < e; ++k) {
      triplets.push_back({r, col[static_cast<std::size_t>(k)],
                          val[static_cast<std::size_t>(k)]});
    }
    triplets.push_back({r, r, alpha});
  }
  return Csr::from_triplets(g.rows(), g.cols(), std::move(triplets));
}

}  // namespace gridse::sparse
