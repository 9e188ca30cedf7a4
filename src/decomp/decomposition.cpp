#include "decomp/decomposition.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "util/error.hpp"

namespace gridse::decomp {

const TieEnds& Subsystem::ties_to(int neighbor) const {
  const auto it = std::lower_bound(
      ties.begin(), ties.end(), neighbor,
      [](const TieEnds& t, int n) { return t.neighbor < n; });
  GRIDSE_CHECK_MSG(it != ties.end() && it->neighbor == neighbor,
                   "subsystems are not neighbours");
  return *it;
}

std::vector<std::pair<int, int>> Decomposition::neighbor_pairs() const {
  std::vector<std::pair<int, int>> pairs;
  for (const Subsystem& s : subsystems) {
    for (const TieEnds& t : s.ties) {
      if (s.id < t.neighbor) pairs.emplace_back(s.id, t.neighbor);
    }
  }
  return pairs;
}

std::vector<int> Decomposition::neighbors_of(int s) const {
  std::vector<int> out;
  for (const TieEnds& t : subsystems[static_cast<std::size_t>(s)].ties) {
    out.push_back(t.neighbor);
  }
  return out;
}

graph::WeightedGraph Decomposition::decomposition_graph() const {
  graph::WeightedGraph g(static_cast<graph::VertexId>(subsystems.size()));
  for (const Subsystem& s : subsystems) {
    g.set_vertex_weight(static_cast<graph::VertexId>(s.id),
                        static_cast<double>(s.buses.size()));
  }
  for (const auto& [a, b] : neighbor_pairs()) {
    // Expression (5): We = gs(s1) + gs(s2). With no sensitivity analysis run
    // yet, gs degenerates to the boundary count; the paper's Table I instead
    // uses the upper bound (total bus counts), which callers get by invoking
    // set_edge_weight with their own estimate. Here we use gs() when it is
    // meaningful and the bus-count upper bound otherwise.
    const Subsystem& sa = subsystems[static_cast<std::size_t>(a)];
    const Subsystem& sb = subsystems[static_cast<std::size_t>(b)];
    const double wa = sa.gs() > 0 ? static_cast<double>(sa.gs())
                                  : static_cast<double>(sa.buses.size());
    const double wb = sb.gs() > 0 ? static_cast<double>(sb.gs())
                                  : static_cast<double>(sb.buses.size());
    g.add_edge(static_cast<graph::VertexId>(a), static_cast<graph::VertexId>(b),
               wa + wb);
  }
  return g;
}

Decomposition decompose(const grid::Network& network,
                        std::span<const int> subsystem_of_bus) {
  const grid::BusIndex n = network.num_buses();
  if (static_cast<grid::BusIndex>(subsystem_of_bus.size()) != n) {
    throw InvalidInput("decompose: membership size does not match bus count");
  }
  int m = 0;
  for (const int s : subsystem_of_bus) {
    if (s < 0) {
      throw InvalidInput("decompose: negative subsystem id");
    }
    m = std::max(m, s + 1);
  }

  Decomposition d;
  d.subsystem_of_bus.assign(subsystem_of_bus.begin(), subsystem_of_bus.end());
  d.subsystems.resize(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    d.subsystems[static_cast<std::size_t>(s)].id = s;
  }
  for (grid::BusIndex b = 0; b < n; ++b) {
    d.subsystems[static_cast<std::size_t>(subsystem_of_bus[static_cast<std::size_t>(b)])]
        .buses.push_back(b);
  }
  for (const Subsystem& s : d.subsystems) {
    if (s.buses.empty()) {
      throw InvalidInput("decompose: subsystem " + std::to_string(s.id) +
                         " is empty (ids must be contiguous 0..m-1)");
    }
  }

  // Per subsystem and neighbour, the own and far ends of their tie lines.
  using Ends = std::pair<std::set<grid::BusIndex>, std::set<grid::BusIndex>>;
  std::vector<std::map<int, Ends>> ends(static_cast<std::size_t>(m));
  for (std::size_t bi = 0; bi < network.num_branches(); ++bi) {
    const grid::Branch& br = network.branch(bi);
    const int sf = subsystem_of_bus[static_cast<std::size_t>(br.from)];
    const int st = subsystem_of_bus[static_cast<std::size_t>(br.to)];
    if (sf == st) {
      d.subsystems[static_cast<std::size_t>(sf)].internal_branches.push_back(bi);
    } else {
      d.tie_lines.push_back(bi);
      auto& [from_own, from_far] = ends[static_cast<std::size_t>(sf)][st];
      from_own.insert(br.from);
      from_far.insert(br.to);
      auto& [to_own, to_far] = ends[static_cast<std::size_t>(st)][sf];
      to_own.insert(br.to);
      to_far.insert(br.from);
    }
  }
  for (Subsystem& sub : d.subsystems) {
    std::set<grid::BusIndex> boundary;
    for (const auto& [t, e] : ends[static_cast<std::size_t>(sub.id)]) {
      sub.ties.push_back({t, {e.first.begin(), e.first.end()},
                          {e.second.begin(), e.second.end()}});
      boundary.insert(e.first.begin(), e.first.end());
    }
    sub.boundary_buses.assign(boundary.begin(), boundary.end());
  }

  // Internal connectivity check per subsystem (a disconnected subsystem
  // cannot run a local state estimation).
  for (const Subsystem& s : d.subsystems) {
    if (s.buses.size() == 1) continue;
    std::set<grid::BusIndex> members(s.buses.begin(), s.buses.end());
    std::set<grid::BusIndex> seen;
    std::queue<grid::BusIndex> q;
    q.push(s.buses.front());
    seen.insert(s.buses.front());
    while (!q.empty()) {
      const grid::BusIndex u = q.front();
      q.pop();
      for (const std::size_t bi : network.branches_at(u)) {
        const grid::Branch& br = network.branch(bi);
        const grid::BusIndex v = (br.from == u) ? br.to : br.from;
        if (members.count(v) > 0 && seen.count(v) == 0) {
          seen.insert(v);
          q.push(v);
        }
      }
    }
    if (seen.size() != s.buses.size()) {
      throw InvalidInput("decompose: subsystem " + std::to_string(s.id) +
                         " is internally disconnected");
    }
  }
  return d;
}

}  // namespace gridse::decomp
