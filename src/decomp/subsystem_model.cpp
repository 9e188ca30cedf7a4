#include "decomp/subsystem_model.hpp"

#include <algorithm>
#include <cstdint>

#include "grid/ybus.hpp"
#include "util/error.hpp"

namespace gridse::decomp {
namespace {

SubsystemModel build_model(const grid::Network& network,
                           const std::vector<grid::BusIndex>& own_buses,
                           const std::vector<grid::BusIndex>& remote_buses,
                           int subsystem_id) {
  SubsystemModel m;
  m.subsystem_id = subsystem_id;

  std::vector<std::pair<std::int32_t, std::int32_t>> bus_entries;
  bus_entries.reserve(own_buses.size() + remote_buses.size());
  const auto add_bus = [&](grid::BusIndex g, bool is_own) {
    grid::Bus bus = network.bus(g);
    const bool slack = bus.type == grid::BusType::kSlack;
    const grid::BusIndex local = m.network.add_bus(std::move(bus));
    m.global_bus.push_back(g);
    bus_entries.emplace_back(g, local);
    m.own.push_back(is_own);
    if (is_own && slack) m.own_slack = local;
  };
  for (const grid::BusIndex g : own_buses) add_bus(g, true);
  for (const grid::BusIndex g : remote_buses) add_bus(g, false);
  m.local_of_global = IndexMap(std::move(bus_entries));

  // Include every branch with both endpoints in the model and at least one
  // of them own: remote buses couple to the state only through own buses.
  std::vector<std::pair<std::int32_t, std::int32_t>> branch_entries;
  for (std::size_t bi = 0; bi < network.num_branches(); ++bi) {
    const grid::Branch& br = network.branch(bi);
    const grid::BusIndex from = m.local_of_global.find(br.from);
    const grid::BusIndex to = m.local_of_global.find(br.to);
    if (from < 0 || to < 0 ||
        (!m.own[static_cast<std::size_t>(from)] &&
         !m.own[static_cast<std::size_t>(to)])) {
      continue;
    }
    grid::Branch local = br;
    local.from = from;
    local.to = to;
    branch_entries.emplace_back(static_cast<std::int32_t>(bi),
                                static_cast<std::int32_t>(
                                    m.global_branch.size()));
    m.global_branch.push_back(bi);
    m.network.add_branch(local);
  }
  m.local_branch_of_global = IndexMap(std::move(branch_entries));

  m.injection_exact.resize(m.global_bus.size());
  for (std::size_t l = 0; l < m.global_bus.size(); ++l) {
    const auto& at = network.branches_at(m.global_bus[l]);
    m.injection_exact[l] =
        std::all_of(at.begin(), at.end(), [&](std::size_t bi) {
          return m.local_branch_of_global.contains(
              static_cast<std::int32_t>(bi));
        });
  }
  m.ybus = grid::build_ybus(m.network);
  return m;
}

}  // namespace

IndexMap::IndexMap(std::vector<std::pair<std::int32_t, std::int32_t>> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end());
}

std::int32_t IndexMap::find(std::int32_t key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& entry, std::int32_t k) { return entry.first < k; });
  return it != entries_.end() && it->first == key ? it->second : -1;
}

std::optional<grid::Measurement> SubsystemModel::remap(
    const grid::Measurement& g) const {
  grid::Measurement local = g;
  const grid::BusIndex bus = local_of_global.find(g.bus);
  // Meters live with the subsystem that owns the metered bus.
  if (bus < 0 || !own[static_cast<std::size_t>(bus)]) {
    return std::nullopt;
  }
  local.bus = bus;

  switch (g.type) {
    case grid::MeasType::kPFlow:
    case grid::MeasType::kQFlow: {
      const std::int32_t branch = local_branch_of_global.find(g.branch);
      if (branch < 0) {
        return std::nullopt;
      }
      local.branch = branch;
      return local;
    }
    case grid::MeasType::kPInjection:
    case grid::MeasType::kQInjection:
      // The injection function sums over every incident branch; it is only
      // correct when all of them are present in the model.
      if (!injection_exact[static_cast<std::size_t>(bus)]) {
        return std::nullopt;
      }
      return local;
    case grid::MeasType::kVMag:
    case grid::MeasType::kVAngle:
      return local;
  }
  return std::nullopt;
}

grid::MeasurementSet SubsystemModel::filter(
    const grid::MeasurementSet& global_set) const {
  grid::MeasurementSet out;
  out.timestamp = global_set.timestamp;
  for (const grid::Measurement& g : global_set.items) {
    if (auto local = remap(g)) {
      out.items.push_back(*local);
    }
  }
  return out;
}

grid::MeasurementSet SubsystemModel::filter(
    const grid::MeasurementSet& global_set,
    std::span<const std::uint32_t> indices) const {
  grid::MeasurementSet out;
  out.timestamp = global_set.timestamp;
  out.items.reserve(indices.size());
  for (const std::uint32_t i : indices) {
    if (auto local = remap(global_set.items[i])) {
      out.items.push_back(*local);
    }
  }
  return out;
}

std::span<const std::uint32_t> MeasurementRoute::of(int s) const {
  GRIDSE_CHECK(s >= 0 && static_cast<std::size_t>(s) + 1 < offsets.size());
  const auto b = offsets[static_cast<std::size_t>(s)];
  const auto e = offsets[static_cast<std::size_t>(s) + 1];
  return std::span<const std::uint32_t>(indices).subspan(b, e - b);
}

MeasurementRoute route_measurements(const Decomposition& d,
                                    const grid::Network& network,
                                    const grid::MeasurementSet& set) {
  GRIDSE_CHECK(static_cast<grid::BusIndex>(d.subsystem_of_bus.size()) ==
               network.num_buses());
  GRIDSE_CHECK(set.size() <= UINT32_MAX);
  grid::validate_measurements(network, set);
  // Counting sort by owning subsystem; a stable scatter keeps each list in
  // measurement order.
  MeasurementRoute route;
  route.offsets.assign(static_cast<std::size_t>(d.num_subsystems()) + 1, 0);
  for (const grid::Measurement& m : set.items) {
    ++route.offsets[static_cast<std::size_t>(
        d.subsystem_of_bus[static_cast<std::size_t>(m.bus)]) + 1];
  }
  for (std::size_t s = 1; s < route.offsets.size(); ++s) {
    route.offsets[s] += route.offsets[s - 1];
  }
  route.indices.resize(set.size());
  std::vector<std::uint32_t> next(route.offsets.begin(),
                                  route.offsets.end() - 1);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const int s =
        d.subsystem_of_bus[static_cast<std::size_t>(set.items[i].bus)];
    route.indices[next[static_cast<std::size_t>(s)]++] =
        static_cast<std::uint32_t>(i);
  }
  return route;
}

grid::GridState SubsystemModel::gather_state(
    const grid::GridState& global_state) const {
  grid::GridState local(network.num_buses());
  for (grid::BusIndex l = 0; l < network.num_buses(); ++l) {
    const grid::BusIndex g = global_bus[static_cast<std::size_t>(l)];
    local.theta[static_cast<std::size_t>(l)] =
        global_state.theta[static_cast<std::size_t>(g)];
    local.vm[static_cast<std::size_t>(l)] =
        global_state.vm[static_cast<std::size_t>(g)];
  }
  return local;
}

SubsystemModel extract_local(const grid::Network& network,
                             const Decomposition& d, int s) {
  GRIDSE_CHECK(s >= 0 && s < d.num_subsystems());
  const Subsystem& sub = d.subsystems[static_cast<std::size_t>(s)];
  return build_model(network, sub.buses, {}, s);
}

SubsystemModel extract_extended(const grid::Network& network,
                                const Decomposition& d, int s) {
  GRIDSE_CHECK(s >= 0 && s < d.num_subsystems());
  const Subsystem& sub = d.subsystems[static_cast<std::size_t>(s)];
  // Far ends of different neighbours are distinct buses.
  std::vector<grid::BusIndex> remote;
  for (const TieEnds& tie : sub.ties) {
    remote.insert(remote.end(), tie.far.begin(), tie.far.end());
  }
  std::sort(remote.begin(), remote.end());
  return build_model(network, sub.buses, remote, s);
}

}  // namespace gridse::decomp
