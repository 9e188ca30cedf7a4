#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/debug_sync.hpp"
#include "analysis/thread_annotations.hpp"
#include "sparse/normal_equations.hpp"
#include "sparse/symbolic_plan.hpp"

namespace gridse::estimation {

/// Thread-safe store of symbolic solver artifacts keyed on sparsity-pattern
/// fingerprints: SymbolicPlans for the gain matrix (AMD ordering, supernode
/// partition and panel layout) and NormalAssemblers for the Jacobian
/// pattern. One cache per (subsystem, model) survives across Gauss–Newton
/// iterations and DSE cycles; `invalidate()` is the remap/topology-change
/// hook — it drops everything, so the next solve re-analyzes from scratch
/// and a stale plan can never be applied to a changed pattern. Even without
/// an explicit invalidation a pattern change is caught by the fingerprint
/// mismatch; the explicit hook exists so migrated subsystems also shed the
/// memory.
class SolverCache {
 public:
  struct Stats {
    std::uint64_t plan_hits = 0;
    std::uint64_t plan_misses = 0;
    std::uint64_t assembler_hits = 0;
    std::uint64_t assembler_misses = 0;
    std::uint64_t invalidations = 0;
  };

  /// Plan for the pattern of `a` (analyzing it on a miss).
  std::shared_ptr<const sparse::SymbolicPlan> plan_for(const sparse::Csr& a);

  /// Gain assembler for the pattern of `h` (analyzing it on a miss).
  std::shared_ptr<const sparse::NormalAssembler> assembler_for(
      const sparse::Csr& h);

  /// Drop every cached artifact (topology change / subsystem remap).
  void invalidate();

  [[nodiscard]] Stats stats() const;

 private:
  // A subsystem alternates between very few patterns (local gain, extended
  // gain, their Jacobians), so a tiny FIFO-bounded list beats a map.
  static constexpr std::size_t kMaxEntries = 8;

  mutable analysis::Mutex mutex_{"estimation::SolverCache"};
  std::vector<std::shared_ptr<const sparse::SymbolicPlan>> plans_
      GRIDSE_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<const sparse::NormalAssembler>> assemblers_
      GRIDSE_GUARDED_BY(mutex_);
  Stats stats_ GRIDSE_GUARDED_BY(mutex_);
};

}  // namespace gridse::estimation
