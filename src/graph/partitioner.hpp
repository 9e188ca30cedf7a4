#pragma once

#include <cstdint>
#include <span>

#include "graph/partition.hpp"

namespace gridse {
class ThreadPool;
}

namespace gridse::graph {

/// What the partitioner minimizes once feasibility (balance) is met.
enum class PartitionObjective {
  /// Classic METIS objective: total weight of cut edges.
  kEdgeCut,
  /// Convergence-aware score per arXiv 2104.04320: minimize the expected
  /// distributed-GN iteration count implied by the worst area's boundary
  /// coupling, breaking ties on edge cut.
  kConvergenceAware,
};

/// Tuning knobs for the k-way partitioner. Defaults mirror METIS: 1.05
/// imbalance tolerance (the "suggested threshold" the paper quotes).
struct PartitionOptions {
  PartId k = 2;
  /// Acceptable load-imbalance ratio (max part / ideal part).
  double imbalance_tolerance = 1.05;
  std::uint64_t seed = 1;
  /// Exhaustive (provably optimal) search is used when k^n is at most this.
  double exhaustive_budget = 2e6;
  /// Stop coarsening once the graph has at most max(this, 4k) vertices.
  VertexId coarsen_to = 24;
  /// Score minimized after feasibility.
  PartitionObjective objective = PartitionObjective::kEdgeCut;
  /// Worker threads for matching/coarsening/refinement. Results are
  /// bit-identical for any thread count; 1 runs inline.
  int threads = 1;
  /// Optional shared pool; when null and threads > 1 the partitioner spins
  /// up (and joins) a private pool per call.
  ThreadPool* pool = nullptr;
};

/// Partition `g` into `options.k` parts, minimizing edge cut subject to the
/// imbalance tolerance (lexicographic objective: feasibility, then cut, then
/// imbalance). Uses exhaustive search for tiny graphs — e.g. the paper's
/// 9-subsystem decomposition graph — and a METIS-style multilevel scheme
/// (heavy-edge matching, greedy initial partition, FM refinement) otherwise.
/// Throws InvalidInput when k exceeds the vertex count or k < 1.
Partition partition(const WeightedGraph& g, const PartitionOptions& options);

/// Adaptive repartitioning: refine `previous` under the (updated) weights of
/// `g`, preferring low migration. This is the paper's "repartitioning routine
/// provided by METIS" invoked before each DSE step as graph weights change.
Partition repartition(const WeightedGraph& g, std::span<const PartId> previous,
                      const PartitionOptions& options);

namespace detail {

/// Provably optimal partition by pruned enumeration (internal; exposed for
/// tests). Requires pow(k, n) within budget.
Partition exhaustive_partition(const WeightedGraph& g,
                               const PartitionOptions& options);

/// Greedy region-growing initial partition (internal; exposed for tests).
Partition greedy_partition(const WeightedGraph& g,
                           const PartitionOptions& options);

/// In-place FM-style k-way boundary refinement; returns the refined result.
Partition fm_refine(const WeightedGraph& g, std::vector<PartId> assignment,
                    const PartitionOptions& options);

/// True if candidate is better under the lexicographic edge-cut objective
/// (feasibility, then cut, then imbalance).
bool better_partition(const Partition& candidate, const Partition& incumbent,
                      double tolerance);

/// Objective-aware comparison: kEdgeCut delegates to the overload above;
/// kConvergenceAware orders by feasibility, then expected GN iterations,
/// then cut, then imbalance.
bool better_partition(const Partition& candidate, const Partition& incumbent,
                      double tolerance, PartitionObjective objective);

}  // namespace detail
}  // namespace gridse::graph
