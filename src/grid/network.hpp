#pragma once

#include <string>
#include <unordered_map>
#include <vector>

namespace gridse::grid {

/// Internal, dense bus index (0-based). External bus numbers from case files
/// map onto these via Network::index_of.
using BusIndex = std::int32_t;

enum class BusType {
  kSlack,  ///< reference bus: fixed angle and magnitude
  kPV,     ///< generator bus: fixed P injection and |V|
  kPQ      ///< load bus: fixed P and Q injection
};

/// One bus of the per-unit network model.
struct Bus {
  int external_id = 0;  ///< case-file bus number (1-based in IEEE cases)
  BusType type = BusType::kPQ;
  double p_load = 0.0;   ///< active load, p.u.
  double q_load = 0.0;   ///< reactive load, p.u.
  double p_gen = 0.0;    ///< scheduled active generation, p.u.
  double q_gen = 0.0;    ///< scheduled reactive generation, p.u.
  double v_setpoint = 1.0;  ///< |V| setpoint for slack/PV buses, p.u.
  double gs = 0.0;       ///< shunt conductance, p.u.
  double bs = 0.0;       ///< shunt susceptance, p.u.
  std::string name;      ///< optional label
};

/// One branch (transmission line or transformer) in per-unit.
struct Branch {
  BusIndex from = -1;
  BusIndex to = -1;
  double r = 0.0;            ///< series resistance
  double x = 0.0;            ///< series reactance (must be nonzero)
  double b_charging = 0.0;   ///< total line charging susceptance
  double tap = 1.0;          ///< off-nominal turns ratio (1.0 = plain line)
  double phase_shift = 0.0;  ///< phase-shifter angle, radians
  /// Live switching status. Out-of-service branches stay in the structural
  /// model (indices, incidence lists and the Ybus pattern are stable across
  /// switching) but carry no admittance and no flow.
  bool in_service = true;
};

/// Per-unit positive-sequence network model: the entity state estimation
/// runs against. The structural topology (buses, branch endpoints,
/// incidence) is immutable after construction helpers finish; only the
/// per-branch `in_service` status may change afterwards, via
/// `set_branch_in_service` (driven by grid::LiveTopology).
class Network {
 public:
  /// Append a bus; returns its internal index. Throws InvalidInput on a
  /// duplicate external id.
  BusIndex add_bus(Bus bus);

  /// Append a branch between internal indices; throws InvalidInput on
  /// out-of-range endpoints or zero series impedance.
  void add_branch(Branch branch);

  /// Accumulate scheduled generation onto bus i (used by case parsing where
  /// multiple generator records may target one bus).
  void add_generation(BusIndex i, double p_gen, double q_gen);

  /// Re-type bus i (slack/PV/PQ) with a voltage setpoint; used by the
  /// synthetic case builders.
  void set_bus_type(BusIndex i, BusType type, double v_setpoint);

  /// Flip the live switching status of branch i. The structural model is
  /// untouched: `connected()`/`validate()` still reason over all branches,
  /// so partitioning preconditions hold mid-replay; live reachability is
  /// the topology layer's job (grid::find_islands).
  void set_branch_in_service(std::size_t i, bool in_service);

  [[nodiscard]] bool branch_in_service(std::size_t i) const {
    return branch(i).in_service;
  }

  /// Scale every bus's load and scheduled generation by `factor` — the
  /// knob a time-series simulation turns to move the operating point
  /// between SCADA frames.
  void scale_loads(double factor);

  [[nodiscard]] BusIndex num_buses() const {
    return static_cast<BusIndex>(buses_.size());
  }
  [[nodiscard]] std::size_t num_branches() const { return branches_.size(); }

  [[nodiscard]] const Bus& bus(BusIndex i) const;
  [[nodiscard]] const std::vector<Bus>& buses() const { return buses_; }
  [[nodiscard]] const Branch& branch(std::size_t i) const;
  [[nodiscard]] const std::vector<Branch>& branches() const { return branches_; }

  /// Internal index for an external bus number; throws InvalidInput if absent.
  [[nodiscard]] BusIndex index_of(int external_id) const;

  /// Index of the (single) slack bus; throws InvalidInput if there is not
  /// exactly one.
  [[nodiscard]] BusIndex slack_bus() const;

  /// Branch indices incident to bus i.
  [[nodiscard]] const std::vector<std::size_t>& branches_at(BusIndex i) const;

  /// Net scheduled injection at bus i: (p_gen - p_load, q_gen - q_load).
  [[nodiscard]] std::pair<double, double> scheduled_injection(BusIndex i) const;

  /// True when every bus is reachable from bus 0 over branches.
  [[nodiscard]] bool connected() const;

  /// Sanity-check the model: exactly one slack, connected, valid branches.
  /// Throws InvalidInput describing the first problem found.
  void validate() const;

 private:
  std::vector<Bus> buses_;
  std::vector<Branch> branches_;
  std::vector<std::vector<std::size_t>> incident_;
  /// external_id -> internal index; keeps add_bus/index_of O(1) so the
  /// 100k-bus synthetic interconnections build in linear time.
  std::unordered_map<int, BusIndex> external_index_;
};

}  // namespace gridse::grid
