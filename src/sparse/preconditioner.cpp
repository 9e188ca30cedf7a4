#include "sparse/preconditioner.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/normal_equations.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::sparse {

LdltPreconditioner::LdltPreconditioner(const Csr& a)
    : LdltPreconditioner(
          a, std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a))) {}

LdltPreconditioner::LdltPreconditioner(
    const Csr& a, std::shared_ptr<const SymbolicPlan> plan) {
  GRIDSE_CHECK(a.rows() == a.cols());
  double max_diag = 0.0;
  for (const double d : a.diagonal()) {
    max_diag = std::max(max_diag, std::abs(d));
  }
  double shift = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    if (try_factorize(a, plan, shift)) {
      if (shift > 0.0) {
        GRIDSE_DEBUG << "LDLt preconditioner: succeeded with diagonal shift "
                     << shift;
      }
      shift_ = shift;
      return;
    }
    shift = (shift == 0.0) ? 1e-8 * max_diag : shift * 10.0;
  }
  throw ConvergenceFailure(
      "LDLt preconditioner factorization failed even with large shift");
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

}  // namespace gridse::sparse
