#pragma once

// Seeded, deterministic topology-change replay: the switching-event
// counterpart of fault::FaultPlan. A TopologyReplayPlan (JSON, installed
// programmatically or through the GRIDSE_TOPOLOGY_PLAN environment
// variable) schedules grid::TopologyEvents against estimation cycles; the
// harness applies each cycle's batch onto a grid::LiveTopology and records
// an applied-event log that is bit-identical across runs and thread counts
// for a given seed — the replay suite asserts this, mirroring the
// injection-log witness of the transport fault layer.
//
// The apply site carries a FAULT_DROP("topology.apply") hook so chaos
// plans can suppress individual switching events (a lost SCADA status
// update) and compose topology replay with transport faults.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "grid/topology.hpp"

namespace gridse::fault {

/// One scheduled switching event: applied at the start of `cycle`.
struct ScheduledTopologyEvent {
  std::int64_t cycle = 0;
  grid::TopologyEvent event;

  bool operator==(const ScheduledTopologyEvent&) const = default;
};

/// Options for the seeded scenario generator: an outage → islanding →
/// restore arc sized to the target network.
struct ReplayScenarioOptions {
  std::int64_t start_cycle = 1;  ///< cycle of the first event
  int num_outages = 2;           ///< random line outages opening the arc
  int event_spacing = 1;         ///< cycles between consecutive events
  int hold_cycles = 2;           ///< cycles to hold the fully degraded state
  bool split_bus = true;         ///< isolate one PQ bus (guaranteed island)
};

/// A full replay plan: seed plus the schedule sorted by cycle.
struct TopologyReplayPlan {
  std::uint64_t seed = 1;
  std::vector<ScheduledTopologyEvent> events;

  /// Parse from JSON:
  ///   {"seed": 7, "events": [
  ///     {"cycle": 1, "kind": "line_outage", "branch": 17},
  ///     {"cycle": 3, "kind": "bus_split", "bus": 5}]}
  /// Throws gridse::InvalidInput on malformed input. Events are re-sorted
  /// by cycle (stable, so same-cycle order is the file order).
  static TopologyReplayPlan parse(std::string_view json);

  [[nodiscard]] std::string to_json() const;

  /// Seeded outage → islanding → restore scenario over `network`: random
  /// line outages, an optional bus split isolating one load bus, a hold,
  /// then merge/restore events returning to the base topology. Purely a
  /// function of (network, seed, options).
  static TopologyReplayPlan generate(const grid::Network& network,
                                     std::uint64_t seed,
                                     const ReplayScenarioOptions& options = {});

  /// Cycle index just past the last scheduled event (0 for an empty plan).
  [[nodiscard]] std::int64_t last_cycle() const {
    return events.empty() ? 0 : events.back().cycle;
  }
};

/// One applied (or suppressed) event — an entry of the determinism witness.
struct AppliedTopologyEvent {
  std::int64_t cycle = 0;
  grid::TopologyEvent event;
  /// Branch indices whose live status flipped (empty for no-ops).
  std::vector<std::size_t> changed_branches;
  /// True when FAULT_DROP("topology.apply") suppressed the event.
  bool dropped = false;
};

/// Applies a plan cycle by cycle onto a LiveTopology and keeps the log.
class TopologyReplayHarness {
 public:
  explicit TopologyReplayHarness(TopologyReplayPlan plan);

  /// Apply every event scheduled at or before `cycle` that has not run
  /// yet (so a driver that skips cycles still sees each event once).
  /// Returns the sorted, deduplicated union of branches whose status
  /// flipped this batch.
  std::vector<std::size_t> apply_cycle(std::int64_t cycle,
                                       grid::LiveTopology& topology);

  [[nodiscard]] const TopologyReplayPlan& plan() const { return plan_; }
  [[nodiscard]] bool finished() const {
    return next_ >= plan_.events.size();
  }
  /// Events applied (not dropped, including no-ops) so far.
  [[nodiscard]] std::size_t events_applied() const { return applied_; }
  [[nodiscard]] const std::vector<AppliedTopologyEvent>& log() const {
    return log_;
  }
  /// The applied-event log as a JSON array — compare across same-seed
  /// runs for the bit-identical replay guarantee.
  [[nodiscard]] std::string log_to_json() const;

 private:
  TopologyReplayPlan plan_;
  std::size_t next_ = 0;
  std::size_t applied_ = 0;
  std::vector<AppliedTopologyEvent> log_;
};

}  // namespace gridse::fault
