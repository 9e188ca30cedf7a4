#include "graph/partitioner.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::graph {

namespace detail {
Partition multilevel_partition(const WeightedGraph& g,
                               const PartitionOptions& options);
}  // namespace detail

Partition partition(const WeightedGraph& g, const PartitionOptions& options) {
  if (options.k < 1) {
    throw InvalidInput("partition: k must be at least 1");
  }
  if (options.k > g.num_vertices()) {
    throw InvalidInput("partition: k exceeds number of vertices");
  }
  OBS_SPAN("partition.run");
  if (options.k == 1) {
    return evaluate_partition(
        g, std::vector<PartId>(static_cast<std::size_t>(g.num_vertices()), 0),
        1);
  }
  const double space = std::pow(static_cast<double>(options.k),
                                static_cast<double>(g.num_vertices()));
  Partition result;
  if (space <= options.exhaustive_budget) {
    result = detail::exhaustive_partition(g, options);
    if (options.objective == PartitionObjective::kConvergenceAware) {
      // Exhaustive search is cut-optimal; let the coupling refinement pass
      // trade cut for lower boundary coupling and keep the better of the
      // two under the convergence-aware order.
      Partition refined = detail::fm_refine(g, result.assignment, options);
      if (detail::better_partition(refined, result,
                                   options.imbalance_tolerance,
                                   options.objective)) {
        result = std::move(refined);
      }
    }
  } else {
    result = detail::multilevel_partition(g, options);
  }
  OBS_GAUGE_SET("partition.cut", result.edge_cut);
  OBS_GAUGE_SET("partition.boundary_buses",
                static_cast<double>(result.boundary_vertices));
  GRIDSE_DEBUG << "partition: k=" << options.k << " cut=" << result.edge_cut
               << " imbalance=" << result.load_imbalance
               << " coupling=" << result.boundary_coupling;
  return result;
}

Partition repartition(const WeightedGraph& g, std::span<const PartId> previous,
                      const PartitionOptions& options) {
  if (!is_valid_partition(g, previous, options.k)) {
    throw InvalidInput("repartition: previous assignment is not a valid "
                       "k-way partition of this graph");
  }
  OBS_SPAN("partition.repartition");
  // Refine the previous assignment under the new weights (low-migration,
  // ParMETIS-style adaptive repartitioning)…
  Partition refined = detail::fm_refine(
      g, std::vector<PartId>(previous.begin(), previous.end()), options);
  // …but fall back to partitioning from scratch when refinement cannot reach
  // the balance tolerance (weights drifted too far for local moves).
  if (refined.load_imbalance > options.imbalance_tolerance + 1e-12) {
    Partition fresh = partition(g, options);
    if (detail::better_partition(fresh, refined, options.imbalance_tolerance,
                                 options.objective)) {
      GRIDSE_DEBUG << "repartition: refinement stuck at imbalance "
                   << refined.load_imbalance << ", took fresh partition";
      return fresh;
    }
  }
  return refined;
}

}  // namespace gridse::graph
