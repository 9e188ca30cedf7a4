#include "mapping/mapper.hpp"

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace gridse::mapping {

ClusterMapper::ClusterMapper(const decomp::Decomposition& decomposition,
                             MappingOptions options, WeightModelParams params)
    : decomposition_(&decomposition), options_(options), params_(params) {
  GRIDSE_CHECK_MSG(options.num_clusters >= 1, "need at least one cluster");
  GRIDSE_CHECK_MSG(options.num_clusters <= decomposition.num_subsystems(),
                   "more clusters than subsystems");
}

graph::WeightedGraph ClusterMapper::initial_graph() const {
  return weighted_graph(/*noise=*/-1.0, /*step2_edges=*/true);
}

graph::WeightedGraph ClusterMapper::weighted_graph(double noise,
                                                   bool step2_edges) const {
  const auto m =
      static_cast<graph::VertexId>(decomposition_->num_subsystems());
  graph::WeightedGraph g(m);
  for (const decomp::Subsystem& s : decomposition_->subsystems) {
    const int nb = static_cast<int>(s.buses.size());
    // noise < 0 selects the Table-I initialization (weight = bus count).
    const double wv =
        noise < 0.0 ? static_cast<double>(nb) : vertex_weight(nb, noise, params_);
    g.set_vertex_weight(static_cast<graph::VertexId>(s.id), wv);
  }
  for (const auto& [a, b] : decomposition_->neighbor_pairs()) {
    double we = 1.0;  // Step 1: no communication, uniform edges
    if (step2_edges) {
      const decomp::Subsystem& sa =
          decomposition_->subsystems[static_cast<std::size_t>(a)];
      const decomp::Subsystem& sb =
          decomposition_->subsystems[static_cast<std::size_t>(b)];
      we = options_.edge_upper_bound
               ? edge_weight_upper_bound(static_cast<int>(sa.buses.size()),
                                         static_cast<int>(sb.buses.size()))
               : edge_weight(sa.gs(), sb.gs());
    }
    g.add_edge(static_cast<graph::VertexId>(a), static_cast<graph::VertexId>(b),
               we);
  }
  return g;
}

MappingResult ClusterMapper::map_before_step1(
    double time_frame_sec, const std::vector<graph::PartId>* previous) const {
  OBS_SPAN("mapping.map_before_step1");
  if (previous != nullptr) {
    OBS_COUNTER_ADD("mapping.repartitions", 1);
    OBS_EVENT("mapping.repartition", OBS_ATTR("step", 1),
              OBS_ATTR("time_frame_sec", time_frame_sec));
  }
  MappingResult result;
  result.noise_level = noise_from_time_frame(time_frame_sec, params_);
  result.predicted_iterations =
      predicted_iterations(result.noise_level, params_);
  result.weighted_graph =
      weighted_graph(result.noise_level, /*step2_edges=*/false);

  graph::PartitionOptions popts;
  popts.k = options_.num_clusters;
  popts.imbalance_tolerance = options_.imbalance_tolerance;
  popts.seed = options_.seed;
  result.partition =
      (previous != nullptr)
          ? graph::repartition(result.weighted_graph, *previous, popts)
          : graph::partition(result.weighted_graph, popts);
  return result;
}

MappingResult ClusterMapper::map_before_step2(
    double time_frame_sec, const std::vector<graph::PartId>& step1) const {
  OBS_SPAN("mapping.map_before_step2");
  OBS_COUNTER_ADD("mapping.repartitions", 1);
  OBS_EVENT("mapping.repartition", OBS_ATTR("step", 2),
            OBS_ATTR("time_frame_sec", time_frame_sec));
  MappingResult result;
  result.noise_level = noise_from_time_frame(time_frame_sec, params_);
  result.predicted_iterations =
      predicted_iterations(result.noise_level, params_);
  result.weighted_graph =
      weighted_graph(result.noise_level, /*step2_edges=*/true);

  graph::PartitionOptions popts;
  popts.k = options_.num_clusters;
  popts.imbalance_tolerance = options_.imbalance_tolerance;
  popts.seed = options_.seed;
  result.partition = graph::repartition(result.weighted_graph, step1, popts);
  return result;
}

std::vector<graph::PartId> contiguous_mapping(int num_subsystems,
                                              int num_clusters) {
  GRIDSE_CHECK(num_clusters >= 1 && num_subsystems >= num_clusters);
  std::vector<graph::PartId> assignment(
      static_cast<std::size_t>(num_subsystems));
  // Even slicing in index order; remainders go to the leading clusters.
  const int base = num_subsystems / num_clusters;
  const int extra = num_subsystems % num_clusters;
  int next = 0;
  for (int c = 0; c < num_clusters; ++c) {
    const int count = base + (c < extra ? 1 : 0);
    for (int i = 0; i < count; ++i) {
      assignment[static_cast<std::size_t>(next++)] =
          static_cast<graph::PartId>(c);
    }
  }
  return assignment;
}

std::vector<int> cluster_bus_counts(const decomp::Decomposition& d,
                                    std::span<const graph::PartId> assignment,
                                    int num_clusters) {
  GRIDSE_CHECK(static_cast<int>(assignment.size()) == d.num_subsystems());
  std::vector<int> counts(static_cast<std::size_t>(num_clusters), 0);
  for (const decomp::Subsystem& s : d.subsystems) {
    counts[static_cast<std::size_t>(
        assignment[static_cast<std::size_t>(s.id)])] +=
        static_cast<int>(s.buses.size());
  }
  return counts;
}

}  // namespace gridse::mapping
