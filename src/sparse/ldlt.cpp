#include "sparse/ldlt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "sparse/normal_equations.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::sparse {
namespace {

/// Columns per block of the dense panel factorization: a finished block's
/// columns stay in cache while they update the panel's trailing columns.
constexpr Index kPanelBlock = 32;

/// Descendants narrower than this update the panel entry by entry; wider
/// ones run the dense column kernels.
constexpr Index kNarrowUpdate = 4;

/// c[0..m) -= Σ_t coef[t] · x[t·ldx + 0..m) over k columns of a
/// column-major x, four columns per pass over c.
void sub_columns(double* __restrict c, Index m, const double* x, Index ldx,
                 const double* coef, Index k) {
  Index t = 0;
  for (; t + 4 <= k; t += 4) {
    const double* x0 = x + static_cast<std::ptrdiff_t>(t) * ldx;
    const double* x1 = x0 + ldx;
    const double* x2 = x1 + ldx;
    const double* x3 = x2 + ldx;
    const double c0 = coef[t];
    const double c1 = coef[t + 1];
    const double c2 = coef[t + 2];
    const double c3 = coef[t + 3];
    for (Index i = 0; i < m; ++i) {
      c[i] -= (c0 * x0[i] + c1 * x1[i]) + (c2 * x2[i] + c3 * x3[i]);
    }
  }
  for (; t < k; ++t) {
    const double* xt = x + static_cast<std::ptrdiff_t>(t) * ldx;
    const double ct = coef[t];
    for (Index i = 0; i < m; ++i) c[i] -= ct * xt[i];
  }
}

/// sub_columns into two target columns at once, c0 with coefficients a and
/// c1 with b, so each load of x serves both.
void sub_columns2(double* __restrict c0, double* __restrict c1, Index m,
                  const double* x, Index ldx, const double* a, const double* b,
                  Index k) {
  Index t = 0;
  for (; t + 4 <= k; t += 4) {
    const double* x0 = x + static_cast<std::ptrdiff_t>(t) * ldx;
    const double* x1 = x0 + ldx;
    const double* x2 = x1 + ldx;
    const double* x3 = x2 + ldx;
    const double a0 = a[t];
    const double a1 = a[t + 1];
    const double a2 = a[t + 2];
    const double a3 = a[t + 3];
    const double b0 = b[t];
    const double b1 = b[t + 1];
    const double b2 = b[t + 2];
    const double b3 = b[t + 3];
    for (Index i = 0; i < m; ++i) {
      const double y0 = x0[i];
      const double y1 = x1[i];
      const double y2 = x2[i];
      const double y3 = x3[i];
      c0[i] -= (a0 * y0 + a1 * y1) + (a2 * y2 + a3 * y3);
      c1[i] -= (b0 * y0 + b1 * y1) + (b2 * y2 + b3 * y3);
    }
  }
  for (; t < k; ++t) {
    const double* xt = x + static_cast<std::ptrdiff_t>(t) * ldx;
    const double at = a[t];
    const double bt = b[t];
    for (Index i = 0; i < m; ++i) {
      c0[i] -= at * xt[i];
      c1[i] -= bt * xt[i];
    }
  }
}

/// Σ_i x[i]·y[i] in four interleaved partial sums.
double dot(const double* x, const double* y, Index m) {
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  Index i = 0;
  for (; i + 4 <= m; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < m; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

/// Dense LDLᵀ of one supernode panel p (rows × w, column-major, leading
/// dimension rows), blocked by kPanelBlock columns: the leading w × w block
/// becomes unit-lower L11 with its pivots on the diagonal (also written to
/// d), the rows below become L21 = A21 L11⁻ᵀ D⁻¹. `coef` holds
/// 2·kPanelBlock doubles. Throws ConvergenceFailure on an exact zero pivot.
void factor_panel(double* p, Index rows, Index w, double* d, double* coef,
                  Index first_col) {
  const auto at = [&](Index i, Index j) {
    return p + static_cast<std::ptrdiff_t>(j) * rows + i;
  };
  const auto pivot_at = [&](Index j) {
    const double pivot = *at(j, j);
    if (pivot == 0.0) {
      throw ConvergenceFailure("sparse LDLt: zero pivot at column " +
                               std::to_string(first_col + j));
    }
    d[j] = pivot;
    double* col = at(0, j);
    for (Index i = j + 1; i < rows; ++i) col[i] /= pivot;
  };
  if (w == 1) {
    pivot_at(0);
    return;
  }
  for (Index jb = 0; jb < w; jb += kPanelBlock) {
    const Index je = std::min(w, jb + kPanelBlock);
    for (Index j = jb; j < je; ++j) {
      for (Index t = jb; t < j; ++t) coef[t - jb] = *at(j, t) * d[t];
      sub_columns(at(j, j), rows - j, at(j, jb), rows, coef, j - jb);
      pivot_at(j);
    }
    // Trailing columns two at a time; column j+1's row j is in the unused
    // upper triangle.
    Index j = je;
    for (; j + 2 <= w; j += 2) {
      for (Index t = jb; t < je; ++t) {
        coef[t - jb] = *at(j, t) * d[t];
        coef[kPanelBlock + t - jb] = *at(j + 1, t) * d[t];
      }
      sub_columns2(at(j, j), at(j, j + 1), rows - j, at(j, jb), rows, coef,
                   coef + kPanelBlock, je - jb);
    }
    if (j < w) {
      for (Index t = jb; t < je; ++t) coef[t - jb] = *at(j, t) * d[t];
      sub_columns(at(j, j), rows - j, at(j, jb), rows, coef, je - jb);
    }
  }
}

/// Where one descendant's update lands: the panel of the supernode being
/// factored, and each row's position in it.
struct Target {
  double* panel;
  Index first;
  Index rows;
  const Index* relmap;

  [[nodiscard]] double* column(Index col) const {
    return panel + static_cast<std::ptrdiff_t>(col - first) * rows;
  }
};

/// The rows [pos, rows) of a finished descendant panel; the first `ncol` of
/// them fall in the target's diagonal block.
struct Source {
  const double* panel;
  const Index* row;
  const double* d;
  Index width;
  Index rows;
  Index pos;
  Index ncol;

  [[nodiscard]] const double* at(Index i, Index t) const {
    return panel + static_cast<std::ptrdiff_t>(t) * rows + i;
  }
};

/// target -= L_d · D_d · L_dᵀ for a descendant narrower than kNarrowUpdate:
/// entry by entry, with no buffer to clear and scatter.
void subtract_narrow(const Target& dst, const Source& src) {
  const Index nrow = src.rows - src.pos;
  const double* l = src.at(src.pos, 0);
  const Index* row = src.row + src.pos;
  for (Index k = 0; k < src.ncol; ++k) {
    double* column = dst.column(row[k]);
    if (src.width == 1) {
      const double a = l[k] * src.d[0];
      for (Index i = k; i < nrow; ++i) {
        column[dst.relmap[row[i]]] -= a * l[i];
      }
      continue;
    }
    double a[kNarrowUpdate];
    for (Index t = 0; t < src.width; ++t) {
      a[t] = *src.at(src.pos + k, t) * src.d[t];
    }
    for (Index i = k; i < nrow; ++i) {
      double sum = a[0] * l[i];
      for (Index t = 1; t < src.width; ++t) {
        sum += a[t] * *src.at(src.pos + i, t);
      }
      column[dst.relmap[row[i]]] -= sum;
    }
  }
}

/// target -= L_d · D_d · L_dᵀ for a wider descendant, two update columns
/// per pass over its rows: subtracted in place when the rows it touches
/// are consecutive in the target panel, else formed in `update` (2 · rows
/// doubles) and scattered. `coef` holds 2 · width doubles.
void subtract_dense(const Target& dst, const Source& src, double* coef,
                    double* update) {
  const Index nrow = src.rows - src.pos;
  const Index* row = src.row + src.pos;
  const Index rel0 = dst.relmap[row[0]];
  const bool in_place = dst.relmap[row[nrow - 1]] - rel0 == nrow - 1;
  double* a_k = coef;
  double* b_k = coef + src.width;
  const auto coefs = [&](double* out, Index k) {
    for (Index t = 0; t < src.width; ++t) {
      out[t] = *src.at(src.pos + k, t) * src.d[t];
    }
  };
  // Destination of update column k, indexed like the source rows.
  const auto dest = [&](Index k, double* buffer) {
    if (in_place) return dst.column(row[k]) + rel0;
    std::fill(buffer + k, buffer + nrow, 0.0);
    return buffer;
  };
  const auto scatter = [&](const double* c, Index k) {
    if (in_place) return;
    double* column = dst.column(row[k]);
    for (Index i = k; i < nrow; ++i) column[dst.relmap[row[i]]] += c[i];
  };
  // Column k+1's row k lands above the diagonal and is never read.
  Index k = 0;
  for (; k + 2 <= src.ncol; k += 2) {
    coefs(a_k, k);
    coefs(b_k, k + 1);
    double* c0 = dest(k, update);
    double* c1 = dest(k + 1, update + nrow);
    sub_columns2(c0 + k, c1 + k, nrow - k, src.at(src.pos + k, 0), src.rows,
                 a_k, b_k, src.width);
    scatter(c0, k);
    scatter(c1, k + 1);
  }
  if (k < src.ncol) {
    coefs(a_k, k);
    double* c0 = dest(k, update);
    sub_columns(c0 + k, nrow - k, src.at(src.pos + k, 0), src.rows, a_k,
                src.width);
    scatter(c0, k);
  }
}

}  // namespace

void SparseLdlt::factorize(const Csr& a) {
  factorize(a, std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a)));
}

void SparseLdlt::factorize(const Csr& a,
                           std::shared_ptr<const SymbolicPlan> plan) {
  GRIDSE_CHECK(plan != nullptr);
  GRIDSE_CHECK_MSG(a.rows() == plan->dim() && a.cols() == plan->dim() &&
                       static_cast<std::uint64_t>(a.nnz()) ==
                           plan->fingerprint().nnz,
                   "SparseLdlt: matrix does not match the symbolic plan");
  plan_ = std::move(plan);
  const SymbolicPlan& sym = *plan_;
  const auto supernodes = sym.supernodes();
  const auto ns = supernodes.size();
  lx_.resize(sym.panel_size());
  d_.resize(static_cast<std::size_t>(sym.dim()));
  Scratch& ws = scratch_;
  ws.relmap.resize(static_cast<std::size_t>(sym.dim()));
  ws.head.assign(ns, -1);
  ws.pending.resize(ns);
  if (ws.coef.size() < 2 * static_cast<std::size_t>(kPanelBlock)) {
    ws.coef.resize(2 * static_cast<std::size_t>(kPanelBlock));
  }

  const Index* srows = sym.super_rows().data();
  const auto csuper = sym.col_super();
  const auto ap = sym.permuted_row_ptr();
  const auto ac = sym.permuted_col_idx();
  const auto amap = sym.value_map();
  const auto aval = a.values();
  // Queue descendant d on the supernode owning its next pending row.
  const auto link = [&](Index d) {
    Pending& p = ws.pending[static_cast<std::size_t>(d)];
    const Index target = csuper[static_cast<std::size_t>(
        srows[supernodes[static_cast<std::size_t>(d)].row_begin + p.pos])];
    p.next = ws.head[static_cast<std::size_t>(target)];
    ws.head[static_cast<std::size_t>(target)] = d;
  };

  for (std::size_t s = 0; s < ns; ++s) {
    const SymbolicPlan::Supernode& sn = supernodes[s];
    const Index* row = srows + sn.row_begin;
    double* panel = lx_.data() + sn.value_offset;
    for (Index i = 0; i < sn.rows; ++i) {
      ws.relmap[static_cast<std::size_t>(row[i])] = i;
    }
    const Target dst{panel, sn.first, sn.rows, ws.relmap.data()};

    // Gather A's lower entries of the supernode's columns.
    std::fill(panel, panel + static_cast<std::ptrdiff_t>(sn.rows) * sn.width,
              0.0);
    for (Index j = sn.first; j < sn.first + sn.width; ++j) {
      double* column = dst.column(j);
      for (Index p = ap[static_cast<std::size_t>(j) + 1] - 1;
           p >= ap[static_cast<std::size_t>(j)]; --p) {
        const Index i = ac[static_cast<std::size_t>(p)];
        if (i < j) break;
        column[dst.relmap[i]] =
            aval[static_cast<std::size_t>(amap[static_cast<std::size_t>(p)])];
      }
    }

    // Apply every descendant whose structure reaches these columns.
    for (Index d = ws.head[s]; d >= 0;) {
      const SymbolicPlan::Supernode& dn =
          supernodes[static_cast<std::size_t>(d)];
      Pending& pending = ws.pending[static_cast<std::size_t>(d)];
      const Index next_d = pending.next;
      Source src{lx_.data() + dn.value_offset, srows + dn.row_begin,
                 d_.data() + dn.first, dn.width, dn.rows, pending.pos, 0};
      Index hit = src.pos;  // rows [pos, hit) fall in the diagonal block
      while (hit < dn.rows && src.row[hit] < sn.first + sn.width) ++hit;
      src.ncol = hit - src.pos;
      if (dn.width < kNarrowUpdate) {
        subtract_narrow(dst, src);
      } else {
        const auto nrow = static_cast<std::size_t>(dn.rows - src.pos);
        if (ws.coef.size() < 2 * static_cast<std::size_t>(dn.width)) {
          ws.coef.resize(2 * static_cast<std::size_t>(dn.width));
        }
        if (ws.update.size() < 2 * nrow) ws.update.resize(2 * nrow);
        subtract_dense(dst, src, ws.coef.data(), ws.update.data());
      }
      pending.pos = hit;
      if (hit < dn.rows) link(d);
      d = next_d;
    }

    factor_panel(panel, sn.rows, sn.width, d_.data() + sn.first,
                 ws.coef.data(), sn.first);
    if (sn.rows > sn.width) {
      ws.pending[s].pos = sn.width;
      link(static_cast<Index>(s));
    }
  }
}

double SparseLdlt::factorize_with_shift(
    const Csr& a, std::shared_ptr<const SymbolicPlan> plan) {
  GRIDSE_CHECK(a.rows() == a.cols());
  double max_diag = 0.0;
  for (const double d : a.diagonal()) {
    max_diag = std::max(max_diag, std::abs(d));
  }
  double shift = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    try {
      if (shift == 0.0) {
        factorize(a, plan);
      } else {
        // Rare path. A gain carries a structural diagonal, so the shifted
        // matrix keeps its pattern and the plan; otherwise analyze afresh.
        const Csr shifted = add_diagonal(a, shift);
        if (shifted.nnz() == a.nnz()) {
          factorize(shifted, plan);
        } else {
          factorize(shifted);
        }
      }
      if (min_pivot() > 0.0) {
        if (shift > 0.0) {
          GRIDSE_DEBUG << "LDLt preconditioner: succeeded with diagonal shift "
                       << shift;
        }
        return shift;
      }
    } catch (const ConvergenceFailure&) {
      // exact zero pivot: retry with a larger shift
    }
    shift = (shift == 0.0) ? 1e-8 * max_diag : shift * 10.0;
  }
  throw ConvergenceFailure(
      "LDLt preconditioner factorization failed even with large shift");
}

void SparseLdlt::solve_permuted(std::span<const double> b,
                                std::span<double> x, std::span<double> work,
                                std::span<double> gather) const {
  const SymbolicPlan& sym = *plan_;
  const Index n = sym.dim();
  GRIDSE_CHECK(static_cast<Index>(b.size()) == n &&
               static_cast<Index>(x.size()) == n);
  const auto perm = sym.perm();
  const Index* srows = sym.super_rows().data();
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    work[i] = b[static_cast<std::size_t>(perm[i])];
  }
  // L y = b, supernode by supernode.
  const auto supernodes = sym.supernodes();
  for (const SymbolicPlan::Supernode& sn : supernodes) {
    const Index w = sn.width;
    const Index m = sn.rows - w;
    const Index* below = srows + sn.row_begin + w;
    const double* panel = lx_.data() + sn.value_offset;
    double* xs = work.data() + sn.first;
    if (w == 1) {
      for (Index i = 0; i < m; ++i) {
        work[static_cast<std::size_t>(below[i])] -= panel[1 + i] * xs[0];
      }
      continue;
    }
    for (Index j = 0; j < w; ++j) {
      const double xj = xs[j];
      const double* col = panel + static_cast<std::ptrdiff_t>(j) * sn.rows;
      for (Index i = j + 1; i < w; ++i) xs[i] -= col[i] * xj;
    }
    std::fill(gather.begin(), gather.begin() + m, 0.0);
    sub_columns(gather.data(), m, panel + w, sn.rows, xs, w);
    for (Index i = 0; i < m; ++i) {
      work[static_cast<std::size_t>(below[i])] +=
          gather[static_cast<std::size_t>(i)];
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    work[i] /= d_[i];
  }
  // Lᵀ x = y, supernodes in reverse.
  for (auto it = supernodes.rbegin(); it != supernodes.rend(); ++it) {
    const SymbolicPlan::Supernode& sn = *it;
    const Index w = sn.width;
    const Index m = sn.rows - w;
    const Index* below = srows + sn.row_begin + w;
    const double* panel = lx_.data() + sn.value_offset;
    double* xs = work.data() + sn.first;
    if (w == 1) {
      double sum = 0.0;
      for (Index i = 0; i < m; ++i) {
        sum += panel[1 + i] * work[static_cast<std::size_t>(below[i])];
      }
      xs[0] -= sum;
      continue;
    }
    for (Index i = 0; i < m; ++i) {
      gather[static_cast<std::size_t>(i)] =
          work[static_cast<std::size_t>(below[i])];
    }
    for (Index j = w - 1; j >= 0; --j) {
      const double* col = panel + static_cast<std::ptrdiff_t>(j) * sn.rows;
      xs[j] -= dot(col + w, gather.data(), m) +
               dot(col + j + 1, xs + j + 1, w - j - 1);
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    x[static_cast<std::size_t>(perm[i])] = work[i];
  }
}

void SparseLdlt::solve(std::span<const double> b, std::span<double> x) {
  GRIDSE_CHECK_MSG(factored(), "SparseLdlt::solve before factorize");
  work_.resize(static_cast<std::size_t>(plan_->dim()));
  gather_.resize(static_cast<std::size_t>(plan_->max_below()));
  solve_permuted(b, x, work_, gather_);
}

double SparseLdlt::min_pivot() const {
  GRIDSE_CHECK_MSG(factored(), "SparseLdlt::min_pivot before factorize");
  return d_.empty() ? std::numeric_limits<double>::infinity()
                    : *std::min_element(d_.begin(), d_.end());
}

std::vector<double> SparseLdlt::solve(std::span<const double> b) const {
  GRIDSE_CHECK_MSG(factored(), "SparseLdlt::solve before factorize");
  const auto n = static_cast<std::size_t>(plan_->dim());
  GRIDSE_CHECK(b.size() == n);
  std::vector<double> out(n);
  std::vector<double> work(n);
  std::vector<double> gather(static_cast<std::size_t>(plan_->max_below()));
  solve_permuted(b, out, work, gather);
  return out;
}

}  // namespace gridse::sparse
