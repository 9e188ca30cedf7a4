#include "grid/dc_powerflow.hpp"

#include <algorithm>
#include <utility>

#include "sparse/csr.hpp"
#include "sparse/ldlt.hpp"
#include "util/error.hpp"

namespace gridse::grid {
namespace detail {

// Assembled straight into CSR: each row gathers its terms in branch order,
// is insertion-sorted by column (stable), and sums its duplicates — the
// diagonal and parallel branches — in that order.
sparse::Csr assemble_bprime(const Network& network,
                            std::span<const std::int32_t> reduced,
                            std::span<const char> in_bprime) {
  GRIDSE_CHECK(reduced.size() ==
                   static_cast<std::size_t>(network.num_buses()) &&
               in_bprime.size() == network.num_branches());
  const auto dim = static_cast<sparse::Index>(
      std::count_if(reduced.begin(), reduced.end(),
                    [](std::int32_t r) { return r >= 0; }));
  const auto row_of = [&](BusIndex b) {
    return reduced[static_cast<std::size_t>(b)];
  };
  std::vector<sparse::Index> start(static_cast<std::size_t>(dim) + 1, 0);
  for (std::size_t bi = 0; bi < network.num_branches(); ++bi) {
    if (in_bprime[bi] == 0) continue;
    const Branch& br = network.branch(bi);
    const std::int32_t rf = row_of(br.from);
    const std::int32_t rt = row_of(br.to);
    if (rf >= 0) start[static_cast<std::size_t>(rf) + 1] += rt >= 0 ? 2 : 1;
    if (rt >= 0) start[static_cast<std::size_t>(rt) + 1] += rf >= 0 ? 2 : 1;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(dim); ++r) {
    start[r + 1] += start[r];
  }
  std::vector<std::pair<sparse::Index, double>> terms(
      static_cast<std::size_t>(start.back()));
  std::vector<sparse::Index> next(start.begin(), start.end() - 1);
  const auto add = [&](std::int32_t row, std::int32_t col, double v) {
    terms[static_cast<std::size_t>(next[static_cast<std::size_t>(row)]++)] = {
        col, v};
  };
  for (std::size_t bi = 0; bi < network.num_branches(); ++bi) {
    if (in_bprime[bi] == 0) continue;
    const Branch& br = network.branch(bi);
    GRIDSE_CHECK_MSG(br.x != 0.0, "DC power flow requires nonzero reactance");
    const double b = 1.0 / br.x;
    const std::int32_t rf = row_of(br.from);
    const std::int32_t rt = row_of(br.to);
    if (rf >= 0) add(rf, rf, b);
    if (rt >= 0) add(rt, rt, b);
    if (rf >= 0 && rt >= 0) {
      add(rf, rt, -b);
      add(rt, rf, -b);
    }
  }

  std::vector<sparse::Index> row_ptr(static_cast<std::size_t>(dim) + 1, 0);
  std::vector<sparse::Index> col;
  std::vector<double> val;
  col.reserve(terms.size());
  val.reserve(terms.size());
  for (std::size_t r = 0; r < static_cast<std::size_t>(dim); ++r) {
    const auto first = terms.begin() + start[r];
    const auto last = terms.begin() + start[r + 1];
    for (auto it = first; it != last; ++it) {
      const auto term = *it;
      auto hole = it;
      for (; hole != first && (hole - 1)->first > term.first; --hole) {
        *hole = *(hole - 1);
      }
      *hole = term;
    }
    const std::size_t row_begin = col.size();
    for (auto it = first; it != last; ++it) {
      if (col.size() > row_begin && col.back() == it->first) {
        val.back() += it->second;
      } else {
        col.push_back(it->first);
        val.push_back(it->second);
      }
    }
    row_ptr[r + 1] = static_cast<sparse::Index>(col.size());
  }
  return sparse::Csr::from_parts(dim, dim, std::move(row_ptr), std::move(col),
                                 std::move(val));
}

std::vector<double> bprime_angles(const Network& network,
                                  std::span<const std::int32_t> reduced,
                                  const BprimeFactor& slot) {
  const BusIndex n = network.num_buses();
  GRIDSE_CHECK(reduced.size() == static_cast<std::size_t>(n));
  std::vector<double> p(
      static_cast<std::size_t>(std::count_if(
          reduced.begin(), reduced.end(), [](std::int32_t r) { return r >= 0; })),
      0.0);
  for (BusIndex i = 0; i < n; ++i) {
    const std::int32_t ri = reduced[static_cast<std::size_t>(i)];
    if (ri >= 0) {
      p[static_cast<std::size_t>(ri)] = network.scheduled_injection(i).first;
    }
  }
  const std::vector<double> theta_reduced = slot.solve(p);

  std::vector<double> theta(static_cast<std::size_t>(n), 0.0);
  for (BusIndex i = 0; i < n; ++i) {
    const std::int32_t ri = reduced[static_cast<std::size_t>(i)];
    if (ri >= 0) {
      theta[static_cast<std::size_t>(i)] =
          theta_reduced[static_cast<std::size_t>(ri)];
    }
  }
  return theta;
}

}  // namespace detail

bool BprimeFactor::holds(const sparse::Csr& bprime) const {
  return plan_ != nullptr && bprime.rows() == bprime_.rows() &&
         std::ranges::equal(bprime.row_ptr(), bprime_.row_ptr()) &&
         std::ranges::equal(bprime.col_idx(), bprime_.col_idx()) &&
         std::ranges::equal(bprime.values(), bprime_.values());
}

void BprimeFactor::factor(sparse::Csr bprime) {
  if (plan_ == nullptr || !plan_->matches(bprime)) {
    plan_ = std::make_shared<const sparse::SymbolicPlan>(
        sparse::SymbolicPlan::analyze(bprime));
  }
  bprime_ = std::move(bprime);
  ldlt_.factorize(bprime_, plan_);
  ++factorizations_;
}

std::vector<double> solve_dc_power_flow(const Network& network) {
  BprimeFactor slot;
  return solve_dc_power_flow(network, slot);
}

std::vector<double> solve_dc_power_flow(const Network& network,
                                        BprimeFactor& slot) {
  // Reduced index: all buses except the slack.
  const BusIndex n = network.num_buses();
  const BusIndex slack = network.slack_bus();
  std::vector<std::int32_t> reduced(static_cast<std::size_t>(n), -1);
  std::int32_t next = 0;
  for (BusIndex i = 0; i < n; ++i) {
    if (i != slack) reduced[static_cast<std::size_t>(i)] = next++;
  }

  const std::vector<char> every_branch(network.num_branches(), 1);
  sparse::Csr bprime = detail::assemble_bprime(network, reduced, every_branch);
  if (!slot.holds(bprime)) {
    network.validate();
    slot.factor(std::move(bprime));
  }
  return detail::bprime_angles(network, reduced, slot);
}

}  // namespace gridse::grid
