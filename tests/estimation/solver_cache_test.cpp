#include "estimation/solver_cache.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace gridse::estimation {
namespace {

sparse::Csr random_spd(sparse::Index n, Rng& rng, double density = 0.3) {
  std::vector<sparse::Triplet<double>> t;
  for (sparse::Index i = 0; i < n; ++i) {
    for (sparse::Index j = 0; j <= i; ++j) {
      if (i == j || rng.bernoulli(density)) {
        const double v = (i == j) ? rng.uniform(2.0, 4.0) + n * 0.2
                                  : rng.uniform(-0.5, 0.5);
        t.push_back({i, j, v});
        if (i != j) t.push_back({j, i, v});
      }
    }
  }
  return sparse::Csr::from_triplets(n, n, std::move(t));
}

TEST(SolverCache, SecondLookupIsAHitReturningTheSamePlan) {
  Rng rng(51);
  const sparse::Csr a = random_spd(20, rng);
  SolverCache cache;
  const auto p1 = cache.plan_for(a);
  const auto p2 = cache.plan_for(a);
  EXPECT_EQ(p1.get(), p2.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 1u);
}

TEST(SolverCache, InvalidateDropsEverything) {
  Rng rng(53);
  const sparse::Csr a = random_spd(12, rng);
  SolverCache cache;
  const auto before = cache.plan_for(a);
  const auto asm_before = cache.assembler_for(a);
  cache.invalidate();
  const auto after = cache.plan_for(a);
  const auto asm_after = cache.assembler_for(a);
  EXPECT_NE(before.get(), after.get());
  EXPECT_NE(asm_before.get(), asm_after.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.plan_misses, 2u);
  EXPECT_EQ(stats.plan_hits, 0u);
}

TEST(SolverCache, DifferentPatternsCoexist) {
  Rng rng(54);
  const sparse::Csr a = random_spd(10, rng);
  const sparse::Csr b = random_spd(11, rng);
  SolverCache cache;
  const auto pa = cache.plan_for(a);
  const auto pb = cache.plan_for(b);
  EXPECT_NE(pa.get(), pb.get());
  EXPECT_EQ(cache.plan_for(a).get(), pa.get());
  EXPECT_EQ(cache.plan_for(b).get(), pb.get());
}

TEST(SolverCache, FifoEvictionBoundsTheEntryCount) {
  // Nine distinct patterns overflow the 8-entry FIFO: the first one must be
  // re-analyzed on its next lookup.
  Rng rng(55);
  std::vector<sparse::Csr> mats;
  for (int i = 0; i < 9; ++i) {
    mats.push_back(random_spd(static_cast<sparse::Index>(5 + i), rng));
  }
  SolverCache cache;
  const auto first = cache.plan_for(mats[0]);
  for (std::size_t i = 1; i < mats.size(); ++i) {
    (void)cache.plan_for(mats[i]);
  }
  const auto again = cache.plan_for(mats[0]);
  EXPECT_NE(first.get(), again.get());
  EXPECT_EQ(cache.stats().plan_misses, 10u);
}

TEST(SolverCache, AssemblerProducesTheNormalMatrix) {
  // A rectangular "Jacobian": the cached assembler must reproduce
  // normal_matrix exactly.
  Rng rng(56);
  std::vector<sparse::Triplet<double>> t;
  const sparse::Index rows = 12;
  const sparse::Index cols = 6;
  for (sparse::Index r = 0; r < rows; ++r) {
    for (sparse::Index c = 0; c < cols; ++c) {
      if (rng.bernoulli(0.4)) t.push_back({r, c, rng.uniform(-1, 1)});
    }
  }
  // Make every column touched so the plain normal matrix has a full diagonal.
  for (sparse::Index c = 0; c < cols; ++c) t.push_back({c, c, 1.5});
  const sparse::Csr h =
      sparse::Csr::from_triplets(rows, cols, std::move(t));
  std::vector<double> w(static_cast<std::size_t>(rows));
  for (auto& v : w) v = rng.uniform(0.5, 2.0);

  SolverCache cache;
  const auto assembler = cache.assembler_for(h);
  ASSERT_TRUE(assembler->matches(h));
  const sparse::Csr got = assembler->assemble(h, w);
  const sparse::Csr want = sparse::normal_matrix(h, w);
  for (sparse::Index i = 0; i < cols; ++i) {
    for (sparse::Index j = 0; j < cols; ++j) {
      EXPECT_NEAR(got.value_at(i, j), want.value_at(i, j), 1e-12)
          << i << "," << j;
    }
  }
  EXPECT_EQ(cache.assembler_for(h).get(), assembler.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.assembler_misses, 1u);
  EXPECT_EQ(stats.assembler_hits, 1u);
}

}  // namespace
}  // namespace gridse::estimation
