#pragma once

#include <span>

#include "core/dse_driver.hpp"

namespace gridse::core {

struct HierarchicalResult {
  grid::GridState state;  ///< coordinator solution, broadcast to all ranks
  bool all_converged = false;
  double step1_seconds = 0.0;
  double coordination_seconds = 0.0;
  double total_seconds = 0.0;
  std::size_t bytes_sent = 0;
};

/// Hierarchical state estimation over the same architecture: each cluster
/// runs its subsystems' local estimations, ships the solutions up to the
/// coordinator (rank 0), which re-evaluates system-wide using the subsystem
/// solutions as pseudo measurements plus the tie-line telemetry, then
/// broadcasts the result (paper Fig. 1, top layer). This is the
/// coordinator-based structure the paper contrasts with the peer-to-peer
/// DSE (§I: balancing authorities feed a reliability coordinator); local
/// solves use the default LocalEstimatorOptions.
class HierarchicalDriver {
 public:
  HierarchicalDriver(const grid::Network& network,
                     const decomp::Decomposition& decomposition);

  /// `assignment` maps each subsystem to its hosting rank; rank 0 is both a
  /// host and the coordinator.
  HierarchicalResult run(runtime::Communicator& comm,
                         const grid::MeasurementSet& global_measurements,
                         std::span<const graph::PartId> assignment) const;

 private:
  const grid::Network* network_;
  const decomp::Decomposition* decomposition_;
};

}  // namespace gridse::core
