#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "analysis/debug_sync.hpp"
#include "analysis/thread_annotations.hpp"
#include "decomp/subsystem_model.hpp"
#include "estimation/solver_cache.hpp"

namespace gridse::core {

/// Per-subsystem state that outlives the per-cycle DseDriver: the
/// SolverCaches, so symbolic factorization plans and gain assemblers persist
/// across DSE cycles, and the extracted local/extended SubsystemModels, so
/// no frame re-extracts them. Owned by the long-lived DseSystem (or a test
/// harness) and handed to each cycle's driver through
/// DseOptions::plan_registry.
///
/// Invalidation contract: `invalidate(s)` must be called whenever subsystem
/// s is re-mapped to a different cluster (the Supervisor's migrated-
/// subsystem list) or its topology changes; it drops the plans and the
/// models. Between those, `sync_branch_status` keeps every kept model on
/// the live switching state. The decomposition itself never changes, so a
/// registry serves one decomposition for its whole life. A missed plan
/// invalidation is still safe — the cached plans are fingerprint-checked
/// against the actual pattern — but the stale entries would waste cache
/// slots on a host that no longer solves them. A missed branch sync is
/// not: the models would describe a grid that no longer exists.
class PlanRegistry {
 public:
  struct Stats {
    std::uint64_t subsystems = 0;  ///< caches currently alive
    std::uint64_t models = 0;      ///< subsystems whose models are kept
    std::uint64_t invalidations = 0;
    estimation::SolverCache::Stats cache;  ///< aggregated over all caches
  };

  /// The cache for `subsystem`, created on first use. Never null.
  std::shared_ptr<estimation::SolverCache> cache_for(int subsystem);

  /// The Step-1 local and Step-2 extended models of `subsystem`, extracted
  /// from (network, d) on first use and kept until invalidated. Never null.
  decomp::SubsystemModels models_for(int subsystem,
                                     const grid::Network& network,
                                     const decomp::Decomposition& d);

  /// Follow the switching state: copy `network`'s in_service status of each
  /// branch in `changed` into every kept model containing that branch — the
  /// owners' local and extended models and the neighbours' extended ones.
  /// Patches in place, so call it between frames, never while a driver runs.
  void sync_branch_status(std::span<const std::size_t> changed,
                          const grid::Network& network);

  /// Drop one subsystem's cached plans and models (subsystem migrated /
  /// topology edited). No-op when the subsystem has neither yet.
  void invalidate(int subsystem);

  [[nodiscard]] Stats stats() const;

 private:
  struct Models {
    std::shared_ptr<decomp::SubsystemModel> local;
    std::shared_ptr<decomp::SubsystemModel> extended;
  };

  mutable analysis::Mutex mutex_{"core::PlanRegistry"};
  std::map<int, std::shared_ptr<estimation::SolverCache>> caches_
      GRIDSE_GUARDED_BY(mutex_);
  std::map<int, Models> models_ GRIDSE_GUARDED_BY(mutex_);
  std::uint64_t invalidations_ GRIDSE_GUARDED_BY(mutex_) = 0;
};

}  // namespace gridse::core
