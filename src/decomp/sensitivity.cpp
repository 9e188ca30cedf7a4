#include "decomp/sensitivity.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "util/error.hpp"

namespace gridse::decomp {

void analyze_sensitivity(const grid::Network& network, Decomposition& d,
                         const SensitivityOptions& options) {
  GRIDSE_CHECK_MSG(options.hops >= 0, "sensitivity hops must be nonnegative");
  for (Subsystem& s : d.subsystems) {
    s.sensitive_internal.clear();
    const std::set<grid::BusIndex> members(s.buses.begin(), s.buses.end());

    // BFS (over internal branches only) outward from the boundary set, which
    // starts at depth 0.
    std::map<grid::BusIndex, int> depth;
    std::queue<grid::BusIndex> q;
    for (const grid::BusIndex b : s.boundary_buses) {
      depth[b] = 0;
      q.push(b);
    }
    while (!q.empty()) {
      const grid::BusIndex u = q.front();
      q.pop();
      if (depth[u] >= options.hops) continue;
      for (const std::size_t bi : network.branches_at(u)) {
        const grid::Branch& br = network.branch(bi);
        const grid::BusIndex v = (br.from == u) ? br.to : br.from;
        if (members.count(v) == 0 || depth.count(v) > 0) continue;
        depth[v] = depth[u] + 1;
        q.push(v);
        s.sensitive_internal.push_back(v);
      }
    }
    std::sort(s.sensitive_internal.begin(), s.sensitive_internal.end());
  }
}

}  // namespace gridse::decomp
