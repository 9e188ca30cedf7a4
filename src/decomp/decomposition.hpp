#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "grid/network.hpp"

namespace gridse::decomp {

/// The tie lines joining a subsystem to one neighbour, by their two ends,
/// each list ascending. In DSE Step 2 the subsystem ships its states at
/// `own` to `neighbor`, and `far` are remote buses of its extended model.
struct TieEnds {
  int neighbor = 0;
  std::vector<grid::BusIndex> own;  ///< a subsequence of boundary_buses
  std::vector<grid::BusIndex> far;
};

/// One subsystem of a power-system decomposition (paper §II, preliminary
/// step): a balancing-authority-sized slice of the interconnection.
struct Subsystem {
  int id = 0;
  /// Global bus indices belonging to this subsystem.
  std::vector<grid::BusIndex> buses;
  /// Buses with at least one incident tie line.
  std::vector<grid::BusIndex> boundary_buses;
  /// Sensitive internal buses (filled in by sensitivity analysis; empty
  /// until analyze_sensitivity runs).
  std::vector<grid::BusIndex> sensitive_internal;
  /// Global branch indices fully inside this subsystem.
  std::vector<std::size_t> internal_branches;
  /// Tie-line ends per neighbour, ascending by neighbour id.
  std::vector<TieEnds> ties;

  /// The entry of `ties` for `neighbor`, which must be a neighbour.
  [[nodiscard]] const TieEnds& ties_to(int neighbor) const;

  /// gs(s) of the paper: |boundary| + |sensitive internal|.
  [[nodiscard]] int gs() const {
    return static_cast<int>(boundary_buses.size() + sensitive_internal.size());
  }
};

/// A full non-overlapping decomposition of a network into m subsystems.
struct Decomposition {
  std::vector<Subsystem> subsystems;
  /// subsystem_of_bus[global bus index] = subsystem id.
  std::vector<int> subsystem_of_bus;
  /// All tie-line branch indices (branches crossing subsystems).
  std::vector<std::size_t> tie_lines;

  [[nodiscard]] int num_subsystems() const {
    return static_cast<int>(subsystems.size());
  }

  /// Neighbouring subsystem pairs (i < j) connected by at least one tie.
  [[nodiscard]] std::vector<std::pair<int, int>> neighbor_pairs() const;

  /// Neighbour ids of subsystem s, ascending.
  [[nodiscard]] std::vector<int> neighbors_of(int s) const;

  /// The decomposition graph of §IV-B1: one vertex per subsystem (weight =
  /// bus count), one edge per neighbouring pair (weight = gs(s1) + gs(s2),
  /// Expression (5) — the paper's Table I upper bound uses bus counts when
  /// sensitivity analysis has not yet narrowed gs).
  [[nodiscard]] graph::WeightedGraph decomposition_graph() const;
};

/// Build a decomposition from a bus→subsystem membership map. Subsystem ids
/// must form a contiguous range 0..m-1 and every subsystem must be
/// non-empty and internally connected; throws InvalidInput otherwise.
Decomposition decompose(const grid::Network& network,
                        std::span<const int> subsystem_of_bus);

}  // namespace gridse::decomp
