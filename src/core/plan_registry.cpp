#include "core/plan_registry.hpp"

#include "obs/obs.hpp"

namespace gridse::core {

std::shared_ptr<estimation::SolverCache> PlanRegistry::cache_for(
    int subsystem) {
  analysis::LockGuard lock(mutex_);
  auto& slot = caches_[subsystem];
  if (slot == nullptr) {
    slot = std::make_shared<estimation::SolverCache>();
  }
  return slot;
}

decomp::SubsystemModels PlanRegistry::models_for(
    int subsystem, const grid::Network& network,
    const decomp::Decomposition& d) {
  {
    analysis::LockGuard lock(mutex_);
    const auto it = models_.find(subsystem);
    if (it != models_.end()) {
      return {it->second.local, it->second.extended};
    }
  }
  // Extract outside the lock, so ranks building different subsystems do not
  // queue behind each other. Two ranks hosting the same subsystem may both
  // extract on its first frame; the first insert wins and the copies are
  // equal.
  Models fresh{std::make_shared<decomp::SubsystemModel>(
                   decomp::extract_local(network, d, subsystem)),
               std::make_shared<decomp::SubsystemModel>(
                   decomp::extract_extended(network, d, subsystem))};
  analysis::LockGuard lock(mutex_);
  const auto it = models_.emplace(subsystem, std::move(fresh)).first;
  return {it->second.local, it->second.extended};
}

void PlanRegistry::sync_branch_status(std::span<const std::size_t> changed,
                                      const grid::Network& network) {
  analysis::LockGuard lock(mutex_);
  for (auto& [s, models] : models_) {
    for (decomp::SubsystemModel* model :
         {models.local.get(), models.extended.get()}) {
      for (const std::size_t bi : changed) {
        const auto it = model->local_branch_of_global.find(bi);
        if (it != model->local_branch_of_global.end()) {
          model->network.set_branch_in_service(it->second,
                                               network.branch_in_service(bi));
        }
      }
    }
  }
}

void PlanRegistry::invalidate(int subsystem) {
  std::shared_ptr<estimation::SolverCache> cache;
  {
    analysis::LockGuard lock(mutex_);
    models_.erase(subsystem);
    const auto it = caches_.find(subsystem);
    if (it == caches_.end()) {
      return;
    }
    cache = it->second;
    ++invalidations_;
  }
  OBS_COUNTER_ADD("solver.registry.invalidations", 1);
  cache->invalidate();
}

PlanRegistry::Stats PlanRegistry::stats() const {
  Stats out;
  std::vector<std::shared_ptr<estimation::SolverCache>> caches;
  {
    analysis::LockGuard lock(mutex_);
    out.subsystems = caches_.size();
    out.models = models_.size();
    out.invalidations = invalidations_;
    caches.reserve(caches_.size());
    for (const auto& [s, cache] : caches_) {
      caches.push_back(cache);
    }
  }
  for (const auto& cache : caches) {
    const estimation::SolverCache::Stats cs = cache->stats();
    out.cache.plan_hits += cs.plan_hits;
    out.cache.plan_misses += cs.plan_misses;
    out.cache.assembler_hits += cs.assembler_hits;
    out.cache.assembler_misses += cs.assembler_misses;
    out.cache.invalidations += cs.invalidations;
  }
  return out;
}

}  // namespace gridse::core
