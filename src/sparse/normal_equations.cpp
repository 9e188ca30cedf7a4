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

  // Pattern of G: the union of the outer products plus a full structural
  // diagonal (explicit zeros), so a diagonally shifted gain keeps the
  // pattern and its cached factorization plan.
  std::vector<Triplet<double>> triplets;
  const auto col = h.col_idx();
  for (Index r = 0; r < h.rows(); ++r) {
    const auto [b, e] = h.row_range(r);
    for (Index i = b; i < e; ++i) {
      for (Index j = b; j < e; ++j) {
        triplets.push_back({col[static_cast<std::size_t>(i)],
                            col[static_cast<std::size_t>(j)], 0.0});
      }
    }
  }
  for (Index i = 0; i < out.dim_; ++i) {
    triplets.push_back({i, i, 0.0});
  }
  const Csr g = Csr::from_triplets(out.dim_, out.dim_, std::move(triplets));
  out.g_ptr_.assign(g.row_ptr().begin(), g.row_ptr().end());
  out.g_col_.assign(g.col_idx().begin(), g.col_idx().end());

  const auto slot_of = [&](Index gr, Index gc) {
    const Index b = out.g_ptr_[static_cast<std::size_t>(gr)];
    const Index e = out.g_ptr_[static_cast<std::size_t>(gr) + 1];
    const auto* first = out.g_col_.data() + b;
    const auto* last = out.g_col_.data() + e;
    const auto* it = std::lower_bound(first, last, gc);
    GRIDSE_CHECK(it != last && *it == gc);
    return static_cast<Index>(b + (it - first));
  };
  for (Index r = 0; r < h.rows(); ++r) {
    const auto [b, e] = h.row_range(r);
    for (Index i = b; i < e; ++i) {
      for (Index j = b; j < e; ++j) {
        out.target_.push_back(slot_of(col[static_cast<std::size_t>(i)],
                                      col[static_cast<std::size_t>(j)]));
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
