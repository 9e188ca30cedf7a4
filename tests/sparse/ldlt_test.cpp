#include "sparse/ldlt.hpp"

#include <gtest/gtest.h>

#include "sparse/normal_equations.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

Csr random_spd(Index n, Rng& rng, double density = 0.2) {
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      if (i == j || rng.bernoulli(density)) {
        const double v = (i == j) ? rng.uniform(2.0, 4.0) + n * 0.2
                                  : rng.uniform(-0.5, 0.5);
        t.push_back({i, j, v});
        if (i != j) t.push_back({j, i, v});
      }
    }
  }
  return Csr::from_triplets(n, n, std::move(t));
}

class LdltSizes : public ::testing::TestWithParam<int> {};

// The AMD-ordered factor (the test name predates AMD) solves through both
// entry points: the allocating solve and the in-place one that reuses the
// factor's work space across calls.
TEST_P(LdltSizes, SolvesRandomSpdWithAndWithoutRcm) {
  const Index n = GetParam();
  Rng rng(1000 + n);
  const Csr a = random_spd(n, rng);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.multiply(x_true, b);

  SparseLdlt ldlt;
  ldlt.factorize(a,
                 std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a)));
  EXPECT_GT(ldlt.min_pivot(), 0.0);
  const auto x = ldlt.solve(b);
  std::vector<double> x_in_place(static_cast<std::size_t>(n), 0.0);
  for (int repeat = 0; repeat < 2; ++repeat) {
    ldlt.solve(b, x_in_place);
    for (Index i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      EXPECT_NEAR(x[ui], x_true[ui], 1e-8);
      EXPECT_EQ(x_in_place[ui], x[ui]) << "repeat " << repeat;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LdltSizes,
                         ::testing::Values(1, 2, 3, 8, 25, 80, 200));

TEST(Ldlt, SolveBeforeFactorizeThrows) {
  SparseLdlt ldlt;
  EXPECT_THROW(ldlt.solve(std::vector<double>{1.0}), InternalError);
}

TEST(Ldlt, SingularMatrixThrows) {
  // second row/column identically zero -> zero pivot
  const Csr a = Csr::from_triplets(2, 2, {{0, 0, 1.0}});
  SparseLdlt ldlt;
  EXPECT_THROW(ldlt.factorize(a), ConvergenceFailure);
}

TEST(Ldlt, IndefiniteButFactorizableMatrix) {
  // LDLᵀ (unlike Cholesky) handles negative pivots as long as none is zero.
  const Csr a =
      Csr::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, -2.0}});
  SparseLdlt ldlt;
  ldlt.factorize(a);
  const auto x = ldlt.solve(std::vector<double>{2.0, 4.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], -2.0, 1e-12);
}

TEST(Ldlt, RepeatedSolvesReuseFactor) {
  Rng rng(55);
  const Csr a = random_spd(30, rng);
  SparseLdlt ldlt;
  ldlt.factorize(a);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x_true(30);
    for (auto& v : x_true) v = rng.uniform(-1, 1);
    std::vector<double> b(30);
    a.multiply(x_true, b);
    const auto x = ldlt.solve(b);
    for (int i = 0; i < 30; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                  x_true[static_cast<std::size_t>(i)], 1e-8);
    }
  }
}

TEST(Ldlt, AmdReducesFillOnArrowheadMatrix) {
  // An arrowhead with its hub first fills completely in natural order; AMD
  // eliminates the hub last and leaves no fill at all.
  const Index n = 40;
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) {
    t.push_back({i, i, 10.0});
    if (i > 0) {
      t.push_back({0, i, 1.0});
      t.push_back({i, 0, 1.0});
    }
  }
  const Csr a = Csr::from_triplets(n, n, std::move(t));
  SparseLdlt amd;
  amd.factorize(a);
  EXPECT_EQ(amd.factor_nnz(), static_cast<std::size_t>(n - 1));

  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    x_true[static_cast<std::size_t>(i)] = 1.0 + 0.1 * i;
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  a.multiply(x_true, b);
  const auto x = amd.solve(b);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(Ldlt, MinPivotReportsIndefiniteFactor) {
  SparseLdlt ldlt;
  ldlt.factorize(Csr::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, -2.0}}));
  EXPECT_EQ(ldlt.min_pivot(), -2.0);
}

}  // namespace
}  // namespace gridse::sparse
