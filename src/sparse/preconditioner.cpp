#include "sparse/preconditioner.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/normal_equations.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::sparse {
namespace {

Csr lower_triangle(const Csr& a, bool include_diagonal) {
  GRIDSE_CHECK(a.rows() == a.cols());
  std::vector<Triplet<double>> t;
  const auto col = a.col_idx();
  const auto val = a.values();
  for (Index r = 0; r < a.rows(); ++r) {
    const auto [b, e] = a.row_range(r);
    for (Index k = b; k < e; ++k) {
      const Index c = col[static_cast<std::size_t>(k)];
      if (c < r || (include_diagonal && c == r)) {
        t.push_back({r, c, val[static_cast<std::size_t>(k)]});
      }
    }
  }
  return Csr::from_triplets(a.rows(), a.cols(), std::move(t));
}

/// Run `try_factor(shift)` with no shift, then with a diagonal shift that
/// starts at 1e-8·max|diag(A)| and grows tenfold, until it succeeds. Returns
/// the shift that worked.
template <typename TryFactor>
double factorize_with_shift_retries(const Csr& a, const char* what,
                                    TryFactor&& try_factor) {
  double max_diag = 0.0;
  for (const double d : a.diagonal()) {
    max_diag = std::max(max_diag, std::abs(d));
  }
  double shift = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    if (try_factor(shift)) {
      if (shift > 0.0) {
        GRIDSE_DEBUG << what << ": succeeded with diagonal shift " << shift;
      }
      return shift;
    }
    shift = (shift == 0.0) ? 1e-8 * max_diag : shift * 10.0;
  }
  throw ConvergenceFailure(std::string(what) +
                           " factorization failed even with large shift");
}

}  // namespace

void IdentityPreconditioner::apply(std::span<const double> r,
                                   std::span<double> z) const {
  GRIDSE_CHECK(r.size() == z.size());
  std::copy(r.begin(), r.end(), z.begin());
}

JacobiPreconditioner::JacobiPreconditioner(const Csr& a) {
  GRIDSE_CHECK(a.rows() == a.cols());
  const auto d = a.diagonal();
  inv_diag_.resize(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    GRIDSE_CHECK_MSG(d[i] != 0.0, "Jacobi preconditioner: zero diagonal");
    inv_diag_[i] = 1.0 / d[i];
  }
}

void JacobiPreconditioner::apply(std::span<const double> r,
                                 std::span<double> z) const {
  GRIDSE_CHECK(r.size() == inv_diag_.size() && z.size() == inv_diag_.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    z[i] = r[i] * inv_diag_[i];
  }
}

SsorPreconditioner::SsorPreconditioner(const Csr& a, double omega)
    : lower_(lower_triangle(a, /*include_diagonal=*/false)),
      diag_(a.diagonal()),
      omega_(omega) {
  GRIDSE_CHECK_MSG(omega > 0.0 && omega < 2.0, "SSOR omega must be in (0,2)");
  for (const double d : diag_) {
    GRIDSE_CHECK_MSG(d > 0.0, "SSOR preconditioner: nonpositive diagonal");
  }
}

void SsorPreconditioner::apply(std::span<const double> r,
                               std::span<double> z) const {
  const std::size_t n = diag_.size();
  GRIDSE_CHECK(r.size() == n && z.size() == n);
  const auto col = lower_.col_idx();
  const auto val = lower_.values();
  // forward sweep: (D/ω + L) y = r
  for (std::size_t i = 0; i < n; ++i) {
    double s = r[i];
    const auto [b, e] = lower_.row_range(static_cast<Index>(i));
    for (Index k = b; k < e; ++k) {
      s -= val[static_cast<std::size_t>(k)] *
           z[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
    }
    z[i] = s * omega_ / diag_[i];
  }
  // scaling by ((2-ω)/ω) D
  for (std::size_t i = 0; i < n; ++i) {
    z[i] *= diag_[i] * (2.0 - omega_) / omega_;
  }
  // backward sweep: (D/ω + Lᵀ) z = y, column-oriented over rows of L
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    z[i] *= omega_ / diag_[i];
    const auto [b, e] = lower_.row_range(static_cast<Index>(i));
    for (Index k = b; k < e; ++k) {
      z[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])] -=
          val[static_cast<std::size_t>(k)] * z[i];
    }
  }
}

Ic0Preconditioner::Ic0Preconditioner(const Csr& a) {
  GRIDSE_CHECK(a.rows() == a.cols());
  l_ = lower_triangle(a, /*include_diagonal=*/true);
  base_vals_.assign(l_.values().begin(), l_.values().end());
  // The shifted factor is still an effective preconditioner.
  shift_ = factorize_with_shift_retries(
      a, "IC(0)", [&](double shift) { return try_factorize(shift); });
}

bool Ic0Preconditioner::try_factorize(double shift) {
  const auto col = l_.col_idx();
  auto val = l_.mutable_values();
  std::copy(base_vals_.begin(), base_vals_.end(), val.begin());
  const Index n = l_.rows();

  // diag_pos[i] = offset of L(i,i); the lower triangle of an SPD matrix
  // always stores the diagonal as the last entry of its row.
  std::vector<Index> diag_pos(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    const auto [b, e] = l_.row_range(i);
    GRIDSE_CHECK_MSG(e > b && col[static_cast<std::size_t>(e - 1)] == i,
                     "IC(0): missing structural diagonal");
    diag_pos[static_cast<std::size_t>(i)] = e - 1;
    val[static_cast<std::size_t>(e - 1)] += shift;
  }

  for (Index i = 0; i < n; ++i) {
    const auto [bi, ei] = l_.row_range(i);
    for (Index ki = bi; ki < ei; ++ki) {
      const Index j = col[static_cast<std::size_t>(ki)];
      // dot of row i and row j of L restricted to columns < j
      double s = val[static_cast<std::size_t>(ki)];
      const auto [bj, ej] = l_.row_range(j);
      Index pi = bi;
      Index pj = bj;
      while (pi < ki && pj < ej) {
        const Index ci = col[static_cast<std::size_t>(pi)];
        const Index cj = col[static_cast<std::size_t>(pj)];
        if (cj >= j) break;
        if (ci == cj) {
          s -= val[static_cast<std::size_t>(pi)] * val[static_cast<std::size_t>(pj)];
          ++pi;
          ++pj;
        } else if (ci < cj) {
          ++pi;
        } else {
          ++pj;
        }
      }
      if (j == i) {
        if (s <= 0.0) {
          return false;
        }
        val[static_cast<std::size_t>(ki)] = std::sqrt(s);
      } else {
        val[static_cast<std::size_t>(ki)] =
            s / val[static_cast<std::size_t>(diag_pos[static_cast<std::size_t>(j)])];
      }
    }
  }
  return true;
}

void Ic0Preconditioner::apply(std::span<const double> r,
                              std::span<double> z) const {
  const Index n = l_.rows();
  GRIDSE_CHECK(static_cast<Index>(r.size()) == n &&
               static_cast<Index>(z.size()) == n);
  const auto col = l_.col_idx();
  const auto val = l_.values();
  // forward solve L y = r (diagonal is the last entry of each row)
  for (Index i = 0; i < n; ++i) {
    double s = r[static_cast<std::size_t>(i)];
    const auto [b, e] = l_.row_range(i);
    for (Index k = b; k < e - 1; ++k) {
      s -= val[static_cast<std::size_t>(k)] *
           z[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
    }
    z[static_cast<std::size_t>(i)] = s / val[static_cast<std::size_t>(e - 1)];
  }
  // backward solve Lᵀ z = y, column-oriented
  for (Index i = n - 1; i >= 0; --i) {
    const auto [b, e] = l_.row_range(i);
    z[static_cast<std::size_t>(i)] /= val[static_cast<std::size_t>(e - 1)];
    const double zi = z[static_cast<std::size_t>(i)];
    for (Index k = b; k < e - 1; ++k) {
      z[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])] -=
          val[static_cast<std::size_t>(k)] * zi;
    }
  }
}

LdltPreconditioner::LdltPreconditioner(const Csr& a)
    : LdltPreconditioner(
          a, std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a))) {}

LdltPreconditioner::LdltPreconditioner(
    const Csr& a, std::shared_ptr<const SymbolicPlan> plan) {
  GRIDSE_CHECK(a.rows() == a.cols());
  shift_ = factorize_with_shift_retries(
      a, "LDLt preconditioner",
      [&](double shift) { return try_factorize(a, plan, shift); });
}

bool LdltPreconditioner::try_factorize(
    const Csr& a, const std::shared_ptr<const SymbolicPlan>& plan,
    double shift) {
  try {
    if (shift == 0.0) {
      factor_.factorize(a, plan);
    } else {
      // Rare path. A gain carries a structural diagonal, so the shifted
      // matrix keeps its pattern and the plan; otherwise analyze afresh.
      const Csr shifted = add_diagonal(a, shift);
      if (shifted.nnz() == a.nnz()) {
        factor_.factorize(shifted, plan);
      } else {
        factor_.factorize(shifted);
      }
    }
  } catch (const ConvergenceFailure&) {
    return false;  // exact zero pivot
  }
  return factor_.min_pivot() > 0.0;
}

void LdltPreconditioner::apply(std::span<const double> r,
                               std::span<double> z) const {
  factor_.solve(r, z);
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const Csr& a) {
  switch (kind) {
    case PreconditionerKind::kNone:
      return std::make_unique<IdentityPreconditioner>();
    case PreconditionerKind::kJacobi:
      return std::make_unique<JacobiPreconditioner>(a);
    case PreconditionerKind::kSsor:
      return std::make_unique<SsorPreconditioner>(a);
    case PreconditionerKind::kIc0:
      return std::make_unique<Ic0Preconditioner>(a);
    case PreconditionerKind::kLdlt:
      return std::make_unique<LdltPreconditioner>(a);
  }
  throw InvalidInput("unknown preconditioner kind");
}

PreconditionerKind parse_preconditioner(const std::string& name) {
  if (name == "none") return PreconditionerKind::kNone;
  if (name == "jacobi") return PreconditionerKind::kJacobi;
  if (name == "ssor") return PreconditionerKind::kSsor;
  if (name == "ic0") return PreconditionerKind::kIc0;
  if (name == "ldlt") return PreconditionerKind::kLdlt;
  throw InvalidInput("unknown preconditioner name: " + name);
}

}  // namespace gridse::sparse
