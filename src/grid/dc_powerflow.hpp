#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "grid/network.hpp"
#include "sparse/csr.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/symbolic_plan.hpp"

namespace gridse::grid {

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

/// Solve the DC (linearized, lossless) power flow B′θ = P over every branch,
/// switching status ignored (solve_dc_power_flow_islands solves the live
/// network), and return the bus angles in radians (slack = 0). P is the
/// scheduled active injection; the slack balances. `network.validate()`
/// proves the network connected, so B′ is nonsingular.
[[nodiscard]] std::vector<double> solve_dc_power_flow(const Network& network);

/// As above, through the caller's B′ slot. `network.validate()` runs only
/// when the slot refactors: it checks structure alone (one slack, connected
/// ignoring switching), which a slot still holding this B′ has passed.
[[nodiscard]] std::vector<double> solve_dc_power_flow(const Network& network,
                                                      BprimeFactor& slot);

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

}  // namespace gridse::grid
