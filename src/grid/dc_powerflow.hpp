#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "grid/network.hpp"
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

/// Solve the DC power flow B'θ = P with the given branch subset removed.
/// `outaged` lists branch indices treated as out of service. Returns
/// nullopt when the outage islands the network (no unique solution).
/// Injections come from the network's scheduled values; the slack balances.
std::optional<DcPowerFlow> solve_dc_power_flow(
    const Network& network, const std::vector<std::size_t>& outaged = {});

/// As above, with a caller-owned slot for B′'s symbolic plan: the plan in
/// `plan` is reused while its fingerprint matches B′'s pattern, and a new
/// one is analyzed (and stored) otherwise. A caller that solves the same
/// topology every frame then pays only for the numeric factor.
std::optional<DcPowerFlow> solve_dc_power_flow(
    const Network& network, std::shared_ptr<const sparse::SymbolicPlan>& plan,
    const std::vector<std::size_t>& outaged = {});

namespace detail {

/// Bus angles from B′θ = P. B′ spans the branches with `in_bprime[bi]`
/// set and the buses with `reduced[b] >= 0` (their B′ row); the others —
/// reference and dead buses — get θ = 0. P is the scheduled active
/// injection. The plan in `plan` is reused while it matches B′'s pattern;
/// otherwise a new one is analyzed and stored there.
std::vector<double> solve_bprime_angles(
    const Network& network, std::span<const std::int32_t> reduced,
    std::span<const char> in_bprime,
    std::shared_ptr<const sparse::SymbolicPlan>& plan);

}  // namespace detail

/// Assign thermal ratings to every branch: `margin` times the absolute
/// base-case DC flow, floored at `min_rating` so lightly loaded branches
/// don't alarm on any redistribution. Mutates the network's branch ratings
/// and returns the base-case solution.
DcPowerFlow assign_ratings_from_base_case(Network& network,
                                          double margin = 1.3,
                                          double min_rating = 0.2);

}  // namespace gridse::grid
