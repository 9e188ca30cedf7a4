#include "fault/topology_replay.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "obs/trace/json_mini.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace gridse::fault {
namespace {

grid::TopologyEventKind kind_from_name(const std::string& name) {
  using K = grid::TopologyEventKind;
  if (name == "line_outage") return K::kLineOutage;
  if (name == "line_restore") return K::kLineRestore;
  if (name == "breaker_open") return K::kBreakerOpen;
  if (name == "breaker_close") return K::kBreakerClose;
  if (name == "bus_split") return K::kBusSplit;
  if (name == "bus_merge") return K::kBusMerge;
  throw InvalidInput("topology plan: unknown event kind \"" + name + "\"");
}

bool kind_takes_branch(grid::TopologyEventKind kind) {
  using K = grid::TopologyEventKind;
  return kind == K::kLineOutage || kind == K::kLineRestore ||
         kind == K::kBreakerOpen || kind == K::kBreakerClose;
}

void append_event_json(std::ostringstream& out,
                       const ScheduledTopologyEvent& e) {
  out << "{\"cycle\":" << e.cycle << ",\"kind\":\""
      << grid::topology_event_kind_name(e.event.kind) << "\"";
  if (kind_takes_branch(e.event.kind)) {
    out << ",\"branch\":" << e.event.branch;
  } else {
    out << ",\"bus\":" << e.event.bus;
  }
  out << "}";
}

}  // namespace

TopologyReplayPlan TopologyReplayPlan::parse(std::string_view json) {
  const obs::jsonm::Value doc = obs::jsonm::parse(json);
  if (!doc.is_object()) {
    throw InvalidInput("topology plan: top level must be an object");
  }
  // Integer fields are read from the raw numeric token: "2.7", "1e3" or a
  // value outside the target type is rejected, never truncated.
  const auto read_int = [](const obs::jsonm::Value& v, const char* key,
                           std::int64_t fallback, std::int64_t min_value,
                           std::int64_t max_value) {
    const obs::jsonm::Value* field = v.find(key);
    if (field == nullptr) return fallback;
    const std::string name = std::string("topology plan: \"") + key + "\"";
    if (!field->is_number()) {
      throw InvalidInput(name + " must be a number");
    }
    return static_cast<std::int64_t>(parse_integer(
        name, field->text, "an integer in range", min_value, max_value));
  };
  constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  TopologyReplayPlan plan;
  plan.seed = static_cast<std::uint64_t>(read_int(
      doc, "seed", static_cast<std::int64_t>(plan.seed), 0,
      std::numeric_limits<std::int64_t>::max()));
  const obs::jsonm::Value* events = doc.find("events");
  if (events == nullptr || !events->is_array()) {
    throw InvalidInput("topology plan: missing \"events\" array");
  }
  for (const obs::jsonm::Value& entry : events->array) {
    if (!entry.is_object()) {
      throw InvalidInput("topology plan: each event must be an object");
    }
    const obs::jsonm::Value* kind = entry.find("kind");
    if (kind == nullptr || !kind->is_string()) {
      throw InvalidInput("topology plan: event needs a string \"kind\"");
    }
    ScheduledTopologyEvent e;
    e.cycle = read_int(entry, "cycle", 0,
                       std::numeric_limits<std::int64_t>::min(),
                       std::numeric_limits<std::int64_t>::max());
    e.event.kind = kind_from_name(kind->text);
    if (kind_takes_branch(e.event.kind)) {
      const std::int64_t branch =
          read_int(entry, "branch", -1, kInt32Min, kInt32Max);
      if (branch < 0) {
        throw InvalidInput("topology plan: branch event needs \"branch\"");
      }
      e.event.branch = static_cast<std::int32_t>(branch);
    } else {
      const std::int64_t bus =
          read_int(entry, "bus", -1, kInt32Min, kInt32Max);
      if (bus < 0) {
        throw InvalidInput("topology plan: bus event needs \"bus\"");
      }
      e.event.bus = static_cast<grid::BusIndex>(bus);
    }
    plan.events.push_back(e);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const ScheduledTopologyEvent& a,
                      const ScheduledTopologyEvent& b) {
                     return a.cycle < b.cycle;
                   });
  return plan;
}

std::string TopologyReplayPlan::to_json() const {
  std::ostringstream out;
  out << "{\"seed\":" << seed << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out << ",";
    append_event_json(out, events[i]);
  }
  out << "]}";
  return out.str();
}

TopologyReplayPlan TopologyReplayPlan::generate(
    const grid::Network& network, std::uint64_t seed,
    const ReplayScenarioOptions& options) {
  GRIDSE_CHECK_MSG(network.num_branches() > 0,
                   "topology replay needs a network with branches");
  GRIDSE_CHECK_MSG(options.num_outages >= 0 && options.event_spacing >= 1 &&
                       options.hold_cycles >= 0,
                   "topology replay: invalid scenario options");
  Rng rng(seed ^ 0x70f0ull);
  TopologyReplayPlan plan;
  plan.seed = seed;
  std::int64_t cycle = options.start_cycle;

  // Opening arc: distinct random line outages, one per spaced cycle.
  std::vector<std::int32_t> outaged;
  const auto num_branches =
      static_cast<std::int64_t>(network.num_branches());
  const int outages = static_cast<int>(
      std::min<std::int64_t>(options.num_outages, num_branches - 1));
  while (static_cast<int>(outaged.size()) < outages) {
    const auto b =
        static_cast<std::int32_t>(rng.uniform_int(0, num_branches - 1));
    if (std::find(outaged.begin(), outaged.end(), b) != outaged.end()) {
      continue;
    }
    outaged.push_back(b);
    plan.events.push_back(
        {cycle, {grid::TopologyEventKind::kLineOutage, b, -1}});
    cycle += options.event_spacing;
  }

  // Islanding: split one random PQ bus — no generation behind it, so the
  // isolated island is guaranteed de-energized and exercises the dead-bus
  // pinning path. Merge closes the arc after the hold.
  grid::BusIndex split = -1;
  if (options.split_bus) {
    std::vector<grid::BusIndex> candidates;
    for (grid::BusIndex i = 0; i < network.num_buses(); ++i) {
      if (network.bus(i).type == grid::BusType::kPQ) candidates.push_back(i);
    }
    if (!candidates.empty()) {
      split = candidates[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1))];
      plan.events.push_back(
          {cycle, {grid::TopologyEventKind::kBusSplit, -1, split}});
      cycle += options.event_spacing;
    }
  }

  cycle += options.hold_cycles;

  if (split >= 0) {
    plan.events.push_back(
        {cycle, {grid::TopologyEventKind::kBusMerge, -1, split}});
    cycle += options.event_spacing;
  }
  // Restores mirror the outages in reverse order.
  for (auto it = outaged.rbegin(); it != outaged.rend(); ++it) {
    plan.events.push_back(
        {cycle, {grid::TopologyEventKind::kLineRestore, *it, -1}});
    cycle += options.event_spacing;
  }
  return plan;
}

TopologyReplayHarness::TopologyReplayHarness(TopologyReplayPlan plan)
    : plan_(std::move(plan)) {
  GRIDSE_CHECK_MSG(
      std::is_sorted(plan_.events.begin(), plan_.events.end(),
                     [](const ScheduledTopologyEvent& a,
                        const ScheduledTopologyEvent& b) {
                       return a.cycle < b.cycle;
                     }),
      "topology replay plan events must be sorted by cycle");
}

std::vector<std::size_t> TopologyReplayHarness::apply_cycle(
    std::int64_t cycle, grid::LiveTopology& topology) {
  std::vector<std::size_t> changed;
  while (next_ < plan_.events.size() && plan_.events[next_].cycle <= cycle) {
    const ScheduledTopologyEvent& scheduled = plan_.events[next_];
    AppliedTopologyEvent record;
    record.cycle = cycle;
    record.event = scheduled.event;
    // Chaos hook: a dropped event models a lost switching/status update —
    // the plan moves on, the grid does not. source = event index within
    // the plan, tag = scheduled cycle, both deterministic.
    if (FAULT_DROP("topology.apply", static_cast<int>(next_),
                   static_cast<int>(scheduled.cycle))) {
      record.dropped = true;
    } else {
      record.changed_branches = topology.apply(scheduled.event);
      ++applied_;
      OBS_COUNTER_ADD("topology.events_applied", 1);
      OBS_EVENT("topology.event",
                OBS_ATTR("kind",
                         grid::topology_event_kind_name(scheduled.event.kind)),
                OBS_ATTR("changed",
                         std::to_string(record.changed_branches.size())));
      changed.insert(changed.end(), record.changed_branches.begin(),
                     record.changed_branches.end());
    }
    log_.push_back(std::move(record));
    ++next_;
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

std::string TopologyReplayHarness::log_to_json() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const AppliedTopologyEvent& rec = log_[i];
    if (i > 0) out << ",";
    out << "{\"cycle\":" << rec.cycle << ",\"kind\":\""
        << grid::topology_event_kind_name(rec.event.kind) << "\"";
    if (kind_takes_branch(rec.event.kind)) {
      out << ",\"branch\":" << rec.event.branch;
    } else {
      out << ",\"bus\":" << rec.event.bus;
    }
    out << ",\"dropped\":" << (rec.dropped ? "true" : "false")
        << ",\"changed\":[";
    for (std::size_t k = 0; k < rec.changed_branches.size(); ++k) {
      if (k > 0) out << ",";
      out << rec.changed_branches[k];
    }
    out << "]}";
  }
  out << "]";
  return out.str();
}

}  // namespace gridse::fault
