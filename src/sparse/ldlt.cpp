#include "sparse/ldlt.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace gridse::sparse {

void SparseLdlt::factorize(const Csr& a) {
  factorize(a, std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a)));
}

void SparseLdlt::factorize(const Csr& a,
                           std::shared_ptr<const SymbolicPlan> plan) {
  GRIDSE_CHECK(plan != nullptr);
  GRIDSE_CHECK_MSG(a.rows() == plan->dim() &&
                       static_cast<std::uint64_t>(a.nnz()) ==
                           plan->fingerprint().nnz,
                   "SparseLdlt: matrix does not match the symbolic plan");
  plan_ = std::move(plan);
  li_.resize(plan_->factor_nnz());
  lx_.resize(plan_->factor_nnz());
  d_.resize(static_cast<std::size_t>(plan_->dim()));
  detail::ldlt_numeric(*plan_, a, li_, lx_, d_, scratch_);
}

void SparseLdlt::solve(std::span<const double> b, std::span<double> x) {
  GRIDSE_CHECK_MSG(factored(), "SparseLdlt::solve before factorize");
  work_.resize(static_cast<std::size_t>(plan_->dim()));
  detail::ldlt_solve(*plan_, li_, lx_, d_, b, x, work_);
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
  detail::ldlt_solve(*plan_, li_, lx_, d_, b, out, work);
  return out;
}

}  // namespace gridse::sparse
