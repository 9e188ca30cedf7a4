#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "grid/dc_powerflow.hpp"
#include "grid/measurement.hpp"
#include "grid/network.hpp"
#include "grid/state.hpp"
#include "sparse/csr.hpp"

namespace gridse::grid {

/// Switching events a grid operator (or a replay plan) can apply to the
/// live network. Line events model protection trips and repairs; breaker
/// events model deliberate switching; bus split/merge model substation
/// reconfiguration by opening/closing every breaker at one bus.
enum class TopologyEventKind : std::uint8_t {
  kLineOutage,    ///< protection trip: branch forced out, overrides breakers
  kLineRestore,   ///< repair complete: clears a fault outage
  kBreakerOpen,   ///< deliberate open of one in-service branch
  kBreakerClose,  ///< reclose one breaker-opened branch
  kBusSplit,      ///< open every in-service branch at a bus (isolates it)
  kBusMerge       ///< reclose every breaker-opened branch at a bus
};

[[nodiscard]] const char* topology_event_kind_name(TopologyEventKind kind);

/// One switching event. Line/breaker events address a branch; bus
/// split/merge address a bus (branch stays -1 and vice versa).
struct TopologyEvent {
  TopologyEventKind kind = TopologyEventKind::kLineOutage;
  std::int32_t branch = -1;
  BusIndex bus = -1;

  bool operator==(const TopologyEvent&) const = default;
};

/// Live status of one branch. A fault outage dominates breaker state:
/// breaker close/merge cannot re-energize a faulted line, only
/// kLineRestore can.
enum class BranchStatus : std::uint8_t {
  kInService,
  kFaultOutage,
  kBreakerOpen
};

/// Connected components of the live (in-service) network, with a
/// deterministic per-island reference-bus assignment so every island can
/// pin its own angle reference instead of diverging on a singular gain.
struct IslandReport {
  /// Island id of every bus; ids are dense, assigned in ascending order of
  /// each island's lowest bus index (island 0 contains bus 0).
  std::vector<std::int32_t> island_of_bus;
  std::int32_t num_islands = 0;
  /// Per-island angle reference: the slack bus when the island holds it,
  /// otherwise the generator (PV) bus with the largest scheduled p_gen
  /// (ties to the lowest index), otherwise the island's lowest bus.
  std::vector<BusIndex> reference_bus;
  /// Per-island energization: true when the island holds the slack bus or
  /// any PV generator. De-energized islands are dead metal: |V| = 0.
  std::vector<char> energized;

  [[nodiscard]] bool bus_energized(BusIndex bus) const {
    return energized[static_cast<std::size_t>(
               island_of_bus[static_cast<std::size_t>(bus)])] != 0;
  }
};

/// Connected components over in-service branches only. BFS in ascending
/// bus order, so island ids, member order and reference choices are
/// deterministic for a given switching state.
[[nodiscard]] IslandReport find_islands(const Network& network);

/// Maintains the live switching state of a network plus an incrementally
/// updated Ybus. The Ybus pattern covers all branches (out-of-service ones
/// hold explicit zeros, see build_ybus), so status flips patch values in
/// place — no re-assembly, and pattern-keyed symbolic solver plans stay
/// valid across switching.
class LiveTopology {
 public:
  /// Binds to `network` (not owned; must outlive this object). Existing
  /// out-of-service branches are adopted as kFaultOutage.
  explicit LiveTopology(Network& network);

  /// Apply one event to the network. Returns the indices of branches whose
  /// live status actually flipped, in ascending order — empty when the
  /// event was a no-op (e.g. restoring a line that is not faulted).
  /// Throws InvalidInput on an out-of-range branch/bus.
  std::vector<std::size_t> apply(const TopologyEvent& event);

  [[nodiscard]] BranchStatus status(std::size_t branch) const;
  [[nodiscard]] const Network& network() const { return *network_; }
  [[nodiscard]] const sparse::CsrComplex& ybus() const { return ybus_; }
  [[nodiscard]] std::size_t num_out_of_service() const;

  [[nodiscard]] IslandReport islands() const {
    return find_islands(*network_);
  }

 private:
  /// Transition branch to `next`, patching the Ybus when the in-service
  /// bit flips. Returns true when the status changed.
  bool transition(std::size_t branch, BranchStatus next);
  void apply_admittance_delta(std::size_t branch, double sign);

  Network* network_;
  std::vector<BranchStatus> status_;
  sparse::CsrComplex ybus_;
};

/// Result of masking a measurement set against the live topology.
struct MaskedMeasurements {
  MeasurementSet active;
  /// Flow measurements dropped because their branch is out of service.
  std::size_t masked_out_of_service = 0;
  /// Measurements dropped because their bus (or either flow endpoint) sits
  /// in a de-energized island.
  std::size_t masked_deenergized = 0;

  [[nodiscard]] std::size_t total_masked() const {
    return masked_out_of_service + masked_deenergized;
  }
};

/// Drop measurements on de-energized equipment: flows on open branches and
/// anything metered at (or flowing toward) a dead bus. The returned active
/// set is what may enter the estimator's residual; order is preserved.
[[nodiscard]] MaskedMeasurements mask_measurements(const Network& network,
                                                   const IslandReport& islands,
                                                   const MeasurementSet& set);

/// Sigma of every pseudo measurement append_anchor_measurements adds: the
/// |V| = 0 / θ = 0 pins on de-energized buses, the θ anchors on live
/// components with no angle measurement, and the |V| anchors on live
/// components whose voltage-magnitude telemetry was entirely masked away
/// (the level is unobservable from P/Q alone — without an anchor the
/// island's |V| profile drifts). Together they keep every estimation
/// group's gain matrix nonsingular under islanding.
inline constexpr double kAnchorSigma = 1e-4;

/// Append pseudo measurements to `set`: (a) |V| = 0 and θ = 0 pins at
/// every de-energized bus; (b) per live connected component of each
/// group's internal subgraph, one θ anchor when it carries no angle
/// measurement in `set` — at the island reference bus (value 0, matching
/// the per-island truth pinning) when the component holds it, otherwise at
/// the component's lowest bus with the prior estimate's angle — and one
/// |V| anchor (prior estimate's magnitude at the same bus) when it carries
/// no magnitude measurement. `group_of_bus` maps each bus to its
/// estimation group (subsystem); pass all-zeros for a single global
/// estimation. Returns the number of pseudo measurements appended.
/// Deterministic for a given input.
std::size_t append_anchor_measurements(const Network& network,
                                       const IslandReport& islands,
                                       std::span<const int> group_of_bus,
                                       const GridState& prior,
                                       MeasurementSet& set);

/// DC power flow of the live, possibly islanded network, as bus angles in
/// radians: each energized island is solved over its in-service branches
/// with its own reference pinned to θ = 0; de-energized islands get θ = 0.
/// Never fails on islanding — this is the graceful-degradation truth model
/// for topology replay.
[[nodiscard]] std::vector<double> solve_dc_power_flow_islands(
    const Network& network, const IslandReport& islands);

/// As above, through the caller's B′ slot: the factor is reused while the
/// reduced B′ is unchanged, refactored when switching changes its values,
/// and its plan re-analyzed only when switching moves an island boundary
/// (a changed pattern).
[[nodiscard]] std::vector<double> solve_dc_power_flow_islands(
    const Network& network, const IslandReport& islands, BprimeFactor& slot);

}  // namespace gridse::grid
