#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "grid/network.hpp"
#include "sparse/csr.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/symbolic_plan.hpp"

namespace gridse::grid {

/// DC (linearized, lossless) power-flow solution: bus angles and branch
/// active flows. The workhorse of contingency screening (paper reference
/// [2] runs "massive contingency analysis" on HPC clusters; the estimated
/// state from DSE is its input).
struct DcPowerFlow {
  std::vector<double> theta;  ///< bus angles, radians (slack = 0)
  /// Active flow on each branch, from -> to, p.u. Entries for outaged
  /// branches are 0.
  std::vector<double> flows;
};

/// A caller-owned slot for the B′ solve of a DC truth re-solved every
/// frame (and for the AC truth's B′ and B″, PowerFlowFactors): the symbolic
/// plan, the factored matrix and its LDLᵀ factor. A solve whose assembled
/// matrix equals the factored one in pattern and values — a frame where
/// only loads moved — reuses the factor and pays two triangular solves;
/// changed values refactor over the plan, and a changed pattern (switching
/// that moves an island boundary) re-analyzes the plan first.
class BprimeFactor {
 public:
  /// True when the slot holds a factor of exactly `bprime`.
  [[nodiscard]] bool holds(const sparse::Csr& bprime) const;

  /// Factor `bprime`, re-analyzing the plan only when the pattern changed.
  void factor(sparse::Csr bprime);

  /// Solve B′ x = b with the held factor.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const {
    return ldlt_.solve(b);
  }

  /// As above, into `x` without allocating: one solve at a time.
  void solve(std::span<const double> b, std::span<double> x) {
    ldlt_.solve(b, x);
  }

  [[nodiscard]] const std::shared_ptr<const sparse::SymbolicPlan>& plan()
      const {
    return plan_;
  }
  /// Numeric factorizations run through this slot.
  [[nodiscard]] std::uint64_t factorizations() const {
    return factorizations_;
  }

 private:
  std::shared_ptr<const sparse::SymbolicPlan> plan_;
  sparse::Csr bprime_;
  sparse::SparseLdlt ldlt_;
  std::uint64_t factorizations_ = 0;
};

/// Solve the DC power flow B'θ = P with the given branch subset removed.
/// `outaged` lists branch indices treated as out of service. Returns
/// nullopt when the outage islands the network (no unique solution).
/// Injections come from the network's scheduled values; the slack balances.
std::optional<DcPowerFlow> solve_dc_power_flow(
    const Network& network, const std::vector<std::size_t>& outaged = {});

/// As above, through the caller's B′ slot. `network.validate()` runs only
/// when the slot refactors: it checks structure alone (one slack, connected
/// ignoring switching), which a slot still holding this B′ has passed.
std::optional<DcPowerFlow> solve_dc_power_flow(
    const Network& network, BprimeFactor& slot,
    const std::vector<std::size_t>& outaged = {});

namespace detail {

/// B′ over the branches with `in_bprime[bi]` set and the buses with
/// `reduced[b] >= 0` (their B′ row), susceptances 1/x (taps and charging
/// ignored in DC).
sparse::Csr assemble_bprime(const Network& network,
                            std::span<const std::int32_t> reduced,
                            std::span<const char> in_bprime);

/// Bus angles from B′θ = P with the B′ `slot` holds (assembled over
/// `reduced`): the reference and dead buses — `reduced[b] < 0` — get
/// θ = 0. P is the scheduled active injection.
std::vector<double> bprime_angles(const Network& network,
                                  std::span<const std::int32_t> reduced,
                                  const BprimeFactor& slot);

}  // namespace detail

/// Assign thermal ratings to every branch: `margin` times the absolute
/// base-case DC flow, floored at `min_rating` so lightly loaded branches
/// don't alarm on any redistribution. Mutates the network's branch ratings
/// and returns the base-case solution.
DcPowerFlow assign_ratings_from_base_case(Network& network,
                                          double margin = 1.3,
                                          double min_rating = 0.2);

}  // namespace gridse::grid
