#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "decomp/decomposition.hpp"
#include "grid/measurement.hpp"
#include "grid/network.hpp"
#include "grid/state.hpp"
#include "sparse/csr.hpp"

namespace gridse::decomp {

/// Flat global → local index map: (key, value) pairs sorted by key and
/// searched by bisection. A subsystem model's maps hold a few hundred
/// entries, which one contiguous array serves better than a node-based map.
class IndexMap {
 public:
  IndexMap() = default;
  /// From (key, value) pairs with distinct keys, in any order.
  explicit IndexMap(std::vector<std::pair<std::int32_t, std::int32_t>> entries);

  /// The value at `key`, or -1 when absent.
  [[nodiscard]] std::int32_t find(std::int32_t key) const;
  [[nodiscard]] bool contains(std::int32_t key) const { return find(key) >= 0; }

 private:
  std::vector<std::pair<std::int32_t, std::int32_t>> entries_;
};

/// A subsystem-scoped network extracted from the interconnection, with the
/// index maps needed to shuttle measurements and states between global and
/// local numbering. Used in two flavours:
///  - local  (DSE Step 1): the subsystem's own buses and internal branches;
///  - extended (DSE Step 2): additionally the subsystem's tie lines and
///    their far-end buses, the only remote buses its own meters reach.
/// Every branch of either model has an own endpoint, so a switch of any of
/// them touches this subsystem. The model is immutable after extraction:
/// a topology change re-extracts it.
struct SubsystemModel {
  int subsystem_id = 0;
  grid::Network network;
  /// build_ybus(network) at extraction: the admittance matrix every
  /// estimator on this model borrows.
  sparse::CsrComplex ybus;
  /// local bus index -> global bus index.
  std::vector<grid::BusIndex> global_bus;
  /// global bus index -> local bus index (-1 = not in model).
  IndexMap local_of_global;
  /// local branch index -> global branch index.
  std::vector<std::size_t> global_branch;
  /// global branch index -> local branch index (-1 = not in model).
  IndexMap local_branch_of_global;
  /// own[local bus] = true when the bus belongs to this subsystem (false for
  /// remote buses pulled into an extended model).
  std::vector<bool> own;
  /// injection_exact[local bus] = true when every branch at the bus in the
  /// interconnection is in the model, so an injection there evaluates
  /// exactly on it.
  std::vector<bool> injection_exact;
  /// Local index of the interconnection's slack bus when this model owns
  /// it, else -1.
  grid::BusIndex own_slack = -1;

  /// Translate one global-numbered measurement into local numbering.
  /// Returns nullopt when the measurement cannot be evaluated on this model:
  /// the bus/branch is absent, the meter sits on a non-own bus, or it is an
  /// injection at a bus with incident branches outside the model (its h(x)
  /// would be wrong).
  [[nodiscard]] std::optional<grid::Measurement> remap(
      const grid::Measurement& global_meas) const;

  /// Filter and remap a whole global measurement set: the reference the
  /// routed overload below must equal. The estimators filter only their
  /// routed list.
  [[nodiscard]] grid::MeasurementSet filter(
      const grid::MeasurementSet& global_set) const;

  /// Filter and remap only the items of `global_set` at `indices` (this
  /// subsystem's MeasurementRoute list); equal to the whole-set filter,
  /// since remap keeps only meters on own buses.
  [[nodiscard]] grid::MeasurementSet filter(
      const grid::MeasurementSet& global_set,
      std::span<const std::uint32_t> indices) const;

  /// Gather the model's buses from a global state into a local state.
  [[nodiscard]] grid::GridState gather_state(
      const grid::GridState& global_state) const;
};

/// A frame's measurements routed to their subsystems: a meter belongs to the
/// subsystem owning its metered bus, the rule SubsystemModel::remap applies,
/// so each subsystem's local and extended filters need only its own list.
/// Lists hold indices into the routed set, ascending, so filtering a list
/// keeps measurement order.
struct MeasurementRoute {
  /// of(s) is indices[offsets[s], offsets[s + 1]).
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> indices;

  [[nodiscard]] std::span<const std::uint32_t> of(int s) const;
};

/// Validate `set` against `network` (grid::validate_measurements: InvalidInput
/// on the first malformed item, a bus outside the network included) and
/// route it by `d.subsystem_of_bus` in one pass.
MeasurementRoute route_measurements(const Decomposition& d,
                                    const grid::Network& network,
                                    const grid::MeasurementSet& set);

/// Extract the Step-1 local model of subsystem `s`.
SubsystemModel extract_local(const grid::Network& network,
                             const Decomposition& d, int s);

/// Extract the Step-2 extended model of subsystem `s`: its own buses plus
/// the far end of each of its tie lines, with its internal branches and
/// tie lines.
SubsystemModel extract_extended(const grid::Network& network,
                                const Decomposition& d, int s);

/// A subsystem's Step-1 local and Step-2 extended models, shared read-only
/// by the estimators that solve on them.
struct SubsystemModels {
  std::shared_ptr<const SubsystemModel> local;
  std::shared_ptr<const SubsystemModel> extended;
};

}  // namespace gridse::decomp
