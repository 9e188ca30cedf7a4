#pragma once

#include <optional>

#include "decomp/decomposition.hpp"
#include "graph/partitioner.hpp"
#include "mapping/weight_model.hpp"

namespace gridse::mapping {

struct MappingOptions {
  int num_clusters = 3;
  /// METIS-style balance tolerance (paper: "the suggested threshold 1.05").
  double imbalance_tolerance = 1.05;
  std::uint64_t seed = 1;
  /// Use Table-I bus-count upper bounds for Step-2 edge weights instead of
  /// gs(s1)+gs(s2) (the paper's case study does: "we use the upper bound of
  /// the size of the pseudo measurements").
  bool edge_upper_bound = true;
};

/// A subsystem→cluster mapping plus the weighted graph it was computed on.
struct MappingResult {
  graph::Partition partition;
  graph::WeightedGraph weighted_graph;
  double noise_level = 0.0;
  double predicted_iterations = 0.0;
};

/// The paper's mapping method (§IV-B): formulate the decomposition as a
/// weighted graph, estimate weights from the time frame via Expressions
/// (1)–(5), and invoke the (re)partitioner before each DSE step.
class ClusterMapper {
 public:
  ClusterMapper(const decomp::Decomposition& decomposition,
                MappingOptions options, WeightModelParams params = {});

  /// Mapping before DSE Step 1: vertex weights from Expression (4), uniform
  /// edge weights (no Step-1 communication). When `previous` is given, the
  /// repartitioning routine refines it (low migration); otherwise a fresh
  /// partition is computed.
  [[nodiscard]] MappingResult map_before_step1(
      double time_frame_sec,
      const std::vector<graph::PartId>* previous = nullptr) const;

  /// Mapping before DSE Step 2: vertex weights updated, edge weights from
  /// Expression (5) (or the Table-I upper bound), repartitioned from the
  /// Step-1 assignment to minimize communication while staying balanced.
  [[nodiscard]] MappingResult map_before_step2(
      double time_frame_sec, const std::vector<graph::PartId>& step1) const;

  [[nodiscard]] const MappingOptions& options() const { return options_; }

  /// The initial weighted decomposition graph of Table I: vertex weight =
  /// bus count, edge weight = bus-count sum of the endpoints.
  [[nodiscard]] graph::WeightedGraph initial_graph() const;

 private:
  [[nodiscard]] graph::WeightedGraph weighted_graph(double noise,
                                                    bool step2_edges) const;

  const decomp::Decomposition* decomposition_;
  MappingOptions options_;
  WeightModelParams params_;
};

/// The "w/o mapping" baseline for Table II: group subsystems onto clusters
/// contiguously in index order (a business-policy style designation).
std::vector<graph::PartId> contiguous_mapping(int num_subsystems,
                                              int num_clusters);

/// Bus count per cluster under a subsystem→cluster assignment.
std::vector<int> cluster_bus_counts(const decomp::Decomposition& d,
                                    std::span<const graph::PartId> assignment,
                                    int num_clusters);

}  // namespace gridse::mapping
