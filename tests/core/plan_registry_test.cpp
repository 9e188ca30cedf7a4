#include "core/plan_registry.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "decomp/sensitivity.hpp"
#include "io/synthetic.hpp"
#include "util/rng.hpp"

namespace gridse::core {
namespace {

sparse::Csr random_spd(sparse::Index n, Rng& rng) {
  std::vector<sparse::Triplet<double>> t;
  for (sparse::Index i = 0; i < n; ++i) {
    for (sparse::Index j = 0; j <= i; ++j) {
      if (i == j || rng.bernoulli(0.3)) {
        const double v = (i == j) ? rng.uniform(2.0, 4.0) + n * 0.2
                                  : rng.uniform(-0.5, 0.5);
        t.push_back({i, j, v});
        if (i != j) t.push_back({j, i, v});
      }
    }
  }
  return sparse::Csr::from_triplets(n, n, std::move(t));
}

TEST(PlanRegistry, CacheForIsStablePerSubsystem) {
  PlanRegistry registry;
  const auto c0 = registry.cache_for(0);
  const auto c1 = registry.cache_for(1);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  EXPECT_NE(c0.get(), c1.get());
  EXPECT_EQ(registry.cache_for(0).get(), c0.get());
  EXPECT_EQ(registry.stats().subsystems, 2u);
}

TEST(PlanRegistry, InvalidateDropsOnlyThatSubsystemsPlans) {
  Rng rng(71);
  const sparse::Csr a = random_spd(15, rng);
  PlanRegistry registry;
  const auto plan0 = registry.cache_for(0)->plan_for(a);
  const auto plan1 = registry.cache_for(1)->plan_for(a);

  registry.invalidate(0);
  // Subsystem 0 re-analyzes; subsystem 1 still hits its cached plan.
  EXPECT_NE(registry.cache_for(0)->plan_for(a).get(), plan0.get());
  EXPECT_EQ(registry.cache_for(1)->plan_for(a).get(), plan1.get());
  const auto stats = registry.stats();
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(PlanRegistry, InvalidateUnknownSubsystemIsANoOp) {
  PlanRegistry registry;
  registry.invalidate(42);
  EXPECT_EQ(registry.stats().subsystems, 0u);
  EXPECT_EQ(registry.stats().invalidations, 0u);
}

TEST(PlanRegistry, ModelsAreKeptUntilInvalidated) {
  const io::GeneratedCase gc = io::ieee118_dse();
  decomp::Decomposition d =
      decomp::decompose(gc.kase.network, gc.subsystem_of_bus);
  decomp::analyze_sensitivity(gc.kase.network, d, {});
  PlanRegistry registry;
  const auto m0 = registry.models_for(0, gc.kase.network, d);
  const auto m1 = registry.models_for(1, gc.kase.network, d);
  ASSERT_NE(m0.local, nullptr);
  ASSERT_NE(m0.extended, nullptr);
  EXPECT_EQ(m0.local->subsystem_id, 0);
  EXPECT_EQ(registry.models_for(0, gc.kase.network, d).local, m0.local);
  EXPECT_EQ(registry.stats().models, 2u);

  // A migration or a touching switch drops that subsystem's models only.
  registry.invalidate(0);
  EXPECT_EQ(registry.stats().models, 1u);
  EXPECT_NE(registry.models_for(0, gc.kase.network, d).local, m0.local);
  EXPECT_EQ(registry.models_for(1, gc.kase.network, d).extended,
            m1.extended);
}

TEST(PlanRegistry, ConcurrentLookupsAreSafe) {
  // The driver's worker pool hits the registry from every thread hosting a
  // subsystem; under TSan this verifies the locking.
  PlanRegistry registry;
  Rng seed_rng(73);
  const sparse::Csr a = random_spd(20, seed_rng);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &a, t] {
      for (int i = 0; i < 50; ++i) {
        const auto cache = registry.cache_for((t + i) % 6);
        (void)cache->plan_for(a);
        if (i % 10 == 0) registry.invalidate(t % 6);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.stats().subsystems, 6u);
}

TEST(PlanRegistry, ConcurrentModelLookupsAreSafe) {
  // Ranks hosting the same subsystem in Step 1 and Step 2 may extract its
  // models at once on its first frame; one copy wins and both get it.
  const io::GeneratedCase gc = io::ieee118_dse();
  decomp::Decomposition d =
      decomp::decompose(gc.kase.network, gc.subsystem_of_bus);
  decomp::analyze_sensitivity(gc.kase.network, d, {});
  PlanRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &gc, &d, t] {
      for (int i = 0; i < 12; ++i) {
        const int s = (t + i) % 3;
        const auto models = registry.models_for(s, gc.kase.network, d);
        EXPECT_EQ(models.local->subsystem_id, s);
        if (i % 5 == 4) registry.invalidate(s);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(registry.stats().models, 3u);
}

}  // namespace
}  // namespace gridse::core
