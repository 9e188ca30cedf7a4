#include "grid/topology.hpp"

#include <algorithm>
#include <queue>

#include "grid/ybus.hpp"
#include "util/error.hpp"

namespace gridse::grid {
namespace {

/// values[k] += delta for the structurally present entry (r, c). The Ybus
/// pattern covers every branch (build_ybus emits explicit zeros), so the
/// entry always exists; a miss means the pattern and the network diverged.
void add_at(sparse::CsrComplex& m, sparse::Index r, sparse::Index c,
            std::complex<double> delta) {
  const auto [b, e] = m.row_range(r);
  const auto cols = m.col_idx();
  const auto* first = cols.data() + b;
  const auto* last = cols.data() + e;
  const auto* it = std::lower_bound(first, last, c);
  GRIDSE_CHECK_MSG(it != last && *it == c,
                   "incremental Ybus update hit a structurally absent entry");
  m.mutable_values()[static_cast<std::size_t>(b + (it - first))] += delta;
}

}  // namespace

const char* topology_event_kind_name(TopologyEventKind kind) {
  switch (kind) {
    case TopologyEventKind::kLineOutage:
      return "line_outage";
    case TopologyEventKind::kLineRestore:
      return "line_restore";
    case TopologyEventKind::kBreakerOpen:
      return "breaker_open";
    case TopologyEventKind::kBreakerClose:
      return "breaker_close";
    case TopologyEventKind::kBusSplit:
      return "bus_split";
    case TopologyEventKind::kBusMerge:
      return "bus_merge";
  }
  return "unknown";
}

IslandReport find_islands(const Network& network) {
  const BusIndex n = network.num_buses();
  IslandReport report;
  report.island_of_bus.assign(static_cast<std::size_t>(n), -1);
  for (BusIndex start = 0; start < n; ++start) {
    if (report.island_of_bus[static_cast<std::size_t>(start)] >= 0) continue;
    const std::int32_t island = report.num_islands++;
    bool has_slack = false;
    BusIndex best_pv = -1;
    double best_pgen = 0.0;
    std::queue<BusIndex> q;
    q.push(start);
    report.island_of_bus[static_cast<std::size_t>(start)] = island;
    while (!q.empty()) {
      const BusIndex u = q.front();
      q.pop();
      const Bus& b = network.bus(u);
      if (b.type == BusType::kSlack) has_slack = true;
      if (b.type == BusType::kPV &&
          (best_pv < 0 || b.p_gen > best_pgen)) {
        best_pv = u;
        best_pgen = b.p_gen;
      }
      for (const std::size_t bi : network.branches_at(u)) {
        const Branch& br = network.branch(bi);
        if (!br.in_service) continue;
        const BusIndex v = (br.from == u) ? br.to : br.from;
        if (report.island_of_bus[static_cast<std::size_t>(v)] < 0) {
          report.island_of_bus[static_cast<std::size_t>(v)] = island;
          q.push(v);
        }
      }
    }
    // BFS discovery order is not index order; re-derive "largest p_gen,
    // ties to lowest index" deterministically below once membership is
    // known. Record the slack/energization verdict now.
    report.energized.push_back(has_slack || best_pv >= 0 ? 1 : 0);
    report.reference_bus.push_back(start);  // provisional: lowest member
  }
  // Reference assignment pass in ascending bus order: slack wins, then the
  // PV bus with the largest p_gen (first seen wins ties — lowest index).
  std::vector<double> ref_pgen(static_cast<std::size_t>(report.num_islands),
                               -1.0);
  std::vector<char> ref_slack(static_cast<std::size_t>(report.num_islands), 0);
  for (BusIndex i = 0; i < n; ++i) {
    const auto island =
        static_cast<std::size_t>(report.island_of_bus[static_cast<std::size_t>(i)]);
    if (ref_slack[island] != 0) continue;
    const Bus& b = network.bus(i);
    if (b.type == BusType::kSlack) {
      report.reference_bus[island] = i;
      ref_slack[island] = 1;
    } else if (b.type == BusType::kPV && b.p_gen > ref_pgen[island]) {
      report.reference_bus[island] = i;
      ref_pgen[island] = b.p_gen;
    }
  }
  return report;
}

LiveTopology::LiveTopology(Network& network)
    : network_(&network), ybus_(build_ybus(network)) {
  status_.reserve(network.num_branches());
  for (std::size_t bi = 0; bi < network.num_branches(); ++bi) {
    status_.push_back(network.branch(bi).in_service
                          ? BranchStatus::kInService
                          : BranchStatus::kFaultOutage);
  }
}

BranchStatus LiveTopology::status(std::size_t branch) const {
  GRIDSE_CHECK(branch < status_.size());
  return status_[branch];
}

std::size_t LiveTopology::num_out_of_service() const {
  std::size_t count = 0;
  for (const BranchStatus s : status_) {
    if (s != BranchStatus::kInService) ++count;
  }
  return count;
}

void LiveTopology::apply_admittance_delta(std::size_t branch, double sign) {
  const Branch& br = network_->branch(branch);
  const BranchAdmittance a = branch_admittance(br);
  add_at(ybus_, br.from, br.from, sign * a.yff);
  add_at(ybus_, br.from, br.to, sign * a.yft);
  add_at(ybus_, br.to, br.from, sign * a.ytf);
  add_at(ybus_, br.to, br.to, sign * a.ytt);
}

bool LiveTopology::transition(std::size_t branch, BranchStatus next) {
  if (status_[branch] == next) return false;
  const bool was_in = status_[branch] == BranchStatus::kInService;
  const bool now_in = next == BranchStatus::kInService;
  if (was_in && !now_in) {
    // The admittance delta is computed from the branch parameters, which
    // do not change while out of service, so subtract-then-add restores
    // the original values exactly (same rounding both ways).
    apply_admittance_delta(branch, -1.0);
    network_->set_branch_in_service(branch, false);
  } else if (!was_in && now_in) {
    network_->set_branch_in_service(branch, true);
    apply_admittance_delta(branch, 1.0);
  }
  status_[branch] = next;
  return true;
}

std::vector<std::size_t> LiveTopology::apply(const TopologyEvent& event) {
  std::vector<std::size_t> changed;
  const auto check_branch = [&] {
    if (event.branch < 0 ||
        static_cast<std::size_t>(event.branch) >= status_.size()) {
      throw InvalidInput("topology event branch index out of range");
    }
    return static_cast<std::size_t>(event.branch);
  };
  const auto check_bus = [&] {
    if (event.bus < 0 || event.bus >= network_->num_buses()) {
      throw InvalidInput("topology event bus index out of range");
    }
    return event.bus;
  };
  switch (event.kind) {
    case TopologyEventKind::kLineOutage: {
      const std::size_t b = check_branch();
      if (transition(b, BranchStatus::kFaultOutage)) changed.push_back(b);
      break;
    }
    case TopologyEventKind::kLineRestore: {
      const std::size_t b = check_branch();
      if (status_[b] == BranchStatus::kFaultOutage &&
          transition(b, BranchStatus::kInService)) {
        changed.push_back(b);
      }
      break;
    }
    case TopologyEventKind::kBreakerOpen: {
      const std::size_t b = check_branch();
      if (status_[b] == BranchStatus::kInService &&
          transition(b, BranchStatus::kBreakerOpen)) {
        changed.push_back(b);
      }
      break;
    }
    case TopologyEventKind::kBreakerClose: {
      const std::size_t b = check_branch();
      if (status_[b] == BranchStatus::kBreakerOpen &&
          transition(b, BranchStatus::kInService)) {
        changed.push_back(b);
      }
      break;
    }
    case TopologyEventKind::kBusSplit: {
      const BusIndex bus = check_bus();
      // Incidence lists are in branch-insertion order, i.e. ascending
      // branch index — the changed list comes out sorted for free.
      for (const std::size_t bi : network_->branches_at(bus)) {
        if (status_[bi] == BranchStatus::kInService &&
            transition(bi, BranchStatus::kBreakerOpen)) {
          changed.push_back(bi);
        }
      }
      break;
    }
    case TopologyEventKind::kBusMerge: {
      const BusIndex bus = check_bus();
      for (const std::size_t bi : network_->branches_at(bus)) {
        if (status_[bi] == BranchStatus::kBreakerOpen &&
            transition(bi, BranchStatus::kInService)) {
          changed.push_back(bi);
        }
      }
      break;
    }
  }
  return changed;
}

MaskedMeasurements mask_measurements(const Network& network,
                                     const IslandReport& islands,
                                     const MeasurementSet& set) {
  MaskedMeasurements out;
  out.active.timestamp = set.timestamp;
  out.active.items.reserve(set.items.size());
  for (const Measurement& m : set.items) {
    switch (m.type) {
      case MeasType::kPFlow:
      case MeasType::kQFlow: {
        const Branch& br = network.branch(static_cast<std::size_t>(m.branch));
        if (!br.in_service) {
          ++out.masked_out_of_service;
          continue;
        }
        // An in-service branch inside a de-energized island (isolated by
        // remote switching) carries no real flow either.
        if (!islands.bus_energized(br.from) || !islands.bus_energized(br.to)) {
          ++out.masked_deenergized;
          continue;
        }
        break;
      }
      case MeasType::kPInjection:
      case MeasType::kQInjection:
      case MeasType::kVMag:
      case MeasType::kVAngle:
        if (!islands.bus_energized(m.bus)) {
          ++out.masked_deenergized;
          continue;
        }
        break;
    }
    out.active.items.push_back(m);
  }
  return out;
}

std::size_t append_anchor_measurements(const Network& network,
                                       const IslandReport& islands,
                                       std::span<const int> group_of_bus,
                                       const GridState& prior,
                                       MeasurementSet& set) {
  const BusIndex n = network.num_buses();
  GRIDSE_CHECK(group_of_bus.size() == static_cast<std::size_t>(n));
  std::size_t appended = 0;

  // Angle/magnitude coverage of the pre-anchor set: a component with any
  // angle measurement (PMU or pseudo) already has its reference
  // observable, one with any |V| measurement has its voltage level
  // observable.
  std::vector<char> has_angle(static_cast<std::size_t>(n), 0);
  std::vector<char> has_vmag(static_cast<std::size_t>(n), 0);
  for (const Measurement& m : set.items) {
    if (m.type == MeasType::kVAngle) {
      has_angle[static_cast<std::size_t>(m.bus)] = 1;
    } else if (m.type == MeasType::kVMag) {
      has_vmag[static_cast<std::size_t>(m.bus)] = 1;
    }
  }

  // (a) De-energized buses: dead metal pinned to |V| = 0, θ = 0. Their
  // real measurements were masked, so without these pins the gain matrix
  // is singular in every dead bus's variables.
  for (BusIndex i = 0; i < n; ++i) {
    if (islands.bus_energized(i)) continue;
    set.items.push_back({MeasType::kVMag, i, -1, true, 0.0, kAnchorSigma});
    set.items.push_back({MeasType::kVAngle, i, -1, true, 0.0, kAnchorSigma});
    appended += 2;
  }

  // (b) Live components of each group's internal subgraph: one θ anchor
  // per energized component with no angle measurement. Components are
  // discovered in ascending bus order → deterministic anchors.
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (BusIndex start = 0; start < n; ++start) {
    if (seen[static_cast<std::size_t>(start)] != 0) continue;
    const int group = group_of_bus[static_cast<std::size_t>(start)];
    std::vector<BusIndex> members;
    std::queue<BusIndex> q;
    q.push(start);
    seen[static_cast<std::size_t>(start)] = 1;
    while (!q.empty()) {
      const BusIndex u = q.front();
      q.pop();
      members.push_back(u);
      for (const std::size_t bi : network.branches_at(u)) {
        const Branch& br = network.branch(bi);
        if (!br.in_service) continue;
        const BusIndex v = (br.from == u) ? br.to : br.from;
        if (group_of_bus[static_cast<std::size_t>(v)] != group ||
            seen[static_cast<std::size_t>(v)] != 0) {
          continue;
        }
        seen[static_cast<std::size_t>(v)] = 1;
        q.push(v);
      }
    }
    // A component lies inside one island, so energization is uniform.
    if (!islands.bus_energized(start)) continue;
    bool covered_angle = false;
    bool covered_vmag = false;
    for (const BusIndex b : members) {
      covered_angle =
          covered_angle || has_angle[static_cast<std::size_t>(b)] != 0;
      covered_vmag =
          covered_vmag || has_vmag[static_cast<std::size_t>(b)] != 0;
      if (covered_angle && covered_vmag) break;
    }
    if (covered_angle && covered_vmag) continue;
    // Anchor at the island reference when this component holds it — truth
    // pins that bus to θ = 0, so the angle anchor is exact. Otherwise fall
    // back to the lowest member with the prior estimate's angle
    // (continuity).
    const auto island = static_cast<std::size_t>(
        islands.island_of_bus[static_cast<std::size_t>(start)]);
    const BusIndex ref = islands.reference_bus[island];
    BusIndex anchor_bus = start;  // lowest member: BFS started there
    double theta_value = 0.0;
    if (std::find(members.begin(), members.end(), ref) != members.end()) {
      anchor_bus = ref;
    } else if (static_cast<BusIndex>(prior.theta.size()) == n) {
      theta_value = prior.theta[static_cast<std::size_t>(anchor_bus)];
    }
    if (!covered_angle) {
      set.items.push_back({MeasType::kVAngle, anchor_bus, -1, true,
                           theta_value, kAnchorSigma});
      ++appended;
    }
    if (!covered_vmag) {
      // The voltage level is unobservable from P/Q telemetry alone: hold
      // the component at the prior estimate's magnitude.
      const double vm_value =
          static_cast<BusIndex>(prior.vm.size()) == n
              ? prior.vm[static_cast<std::size_t>(anchor_bus)]
              : 1.0;
      set.items.push_back({MeasType::kVMag, anchor_bus, -1, true, vm_value,
                           kAnchorSigma});
      ++appended;
    }
  }
  return appended;
}

std::vector<double> solve_dc_power_flow_islands(const Network& network,
                                                const IslandReport& islands) {
  BprimeFactor slot;
  return solve_dc_power_flow_islands(network, islands, slot);
}

std::vector<double> solve_dc_power_flow_islands(const Network& network,
                                                const IslandReport& islands,
                                                BprimeFactor& slot) {
  const BusIndex n = network.num_buses();
  GRIDSE_CHECK(islands.island_of_bus.size() == static_cast<std::size_t>(n));

  // Reduced index over energized, non-reference buses. Each energized
  // island contributes one block of the (block-diagonal) reduced B'.
  std::vector<std::int32_t> red(static_cast<std::size_t>(n), -1);
  std::int32_t next = 0;
  for (BusIndex i = 0; i < n; ++i) {
    const auto island = static_cast<std::size_t>(
        islands.island_of_bus[static_cast<std::size_t>(i)]);
    if (islands.energized[island] == 0) continue;
    if (islands.reference_bus[island] == i) continue;
    red[static_cast<std::size_t>(i)] = next++;
  }

  // Live branches: in service and energized. Both ends of an in-service
  // branch lie in one island, so the from end decides.
  std::vector<char> live(network.num_branches(), 0);
  for (std::size_t bi = 0; bi < network.num_branches(); ++bi) {
    const Branch& br = network.branch(bi);
    live[bi] = br.in_service && islands.bus_energized(br.from) ? 1 : 0;
  }

  if (next == 0) return std::vector<double>(static_cast<std::size_t>(n), 0.0);
  sparse::Csr bprime = detail::assemble_bprime(network, red, live);
  if (!slot.holds(bprime)) slot.factor(std::move(bprime));
  return detail::bprime_angles(network, red, slot);
}

}  // namespace gridse::grid
