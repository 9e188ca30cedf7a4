#include "estimation/solver_cache.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace gridse::estimation {

std::shared_ptr<const sparse::SymbolicPlan> SolverCache::plan_for(
    const sparse::Csr& a) {
  const sparse::PatternFingerprint fp = sparse::fingerprint_pattern(a);
  {
    analysis::LockGuard lock(mutex_);
    for (const auto& plan : plans_) {
      if (plan->fingerprint() == fp) {
        ++stats_.plan_hits;
        OBS_COUNTER_ADD("solver.plan.hits", 1);
        return plan;
      }
    }
    ++stats_.plan_misses;
  }
  OBS_COUNTER_ADD("solver.plan.misses", 1);
  // Analyze outside the lock: symbolic analysis is the expensive part, and a
  // duplicate analysis on a race is harmless (both plans are equivalent).
  auto plan = std::make_shared<const sparse::SymbolicPlan>(
      sparse::SymbolicPlan::analyze(a));
  analysis::LockGuard lock(mutex_);
  if (plans_.size() >= kMaxEntries) {
    plans_.erase(plans_.begin());
  }
  plans_.push_back(plan);
  return plan;
}

std::shared_ptr<const sparse::NormalAssembler> SolverCache::assembler_for(
    const sparse::Csr& h) {
  const sparse::PatternFingerprint fp = sparse::fingerprint_pattern(h);
  {
    analysis::LockGuard lock(mutex_);
    for (const auto& assembler : assemblers_) {
      if (assembler->fingerprint() == fp) {
        ++stats_.assembler_hits;
        OBS_COUNTER_ADD("solver.assembler.hits", 1);
        return assembler;
      }
    }
    ++stats_.assembler_misses;
  }
  OBS_COUNTER_ADD("solver.assembler.misses", 1);
  auto assembler = std::make_shared<const sparse::NormalAssembler>(
      sparse::NormalAssembler::analyze(h));
  analysis::LockGuard lock(mutex_);
  if (assemblers_.size() >= kMaxEntries) {
    assemblers_.erase(assemblers_.begin());
  }
  assemblers_.push_back(assembler);
  return assembler;
}

void SolverCache::invalidate() {
  analysis::LockGuard lock(mutex_);
  if (plans_.empty() && assemblers_.empty()) {
    return;
  }
  plans_.clear();
  assemblers_.clear();
  ++stats_.invalidations;
  OBS_COUNTER_ADD("solver.plan.invalidations", 1);
}

SolverCache::Stats SolverCache::stats() const {
  analysis::LockGuard lock(mutex_);
  return stats_;
}

}  // namespace gridse::estimation
