#include "sparse/ldlt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sparse/cg.hpp"
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

/// factorize_with_shift over a plan analyzed on `a` itself.
double shift_factor(SparseLdlt& ldlt, const Csr& a) {
  return ldlt.factorize_with_shift(
      a, std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a)));
}

Csr tridiagonal_spd(Index n) {
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) {
    t.push_back({i, i, 4.0});
    if (i + 1 < n) {
      t.push_back({i, i + 1, -1.0});
      t.push_back({i + 1, i, -1.0});
    }
  }
  return Csr::from_triplets(n, n, std::move(t));
}

TEST(FactorizeWithShift, IsASymmetricOperator) {
  // A symmetric preconditioner must satisfy uᵀ M⁻¹ v == vᵀ M⁻¹ u — required
  // for PCG correctness.
  const Csr a = tridiagonal_spd(12);
  SparseLdlt m;
  shift_factor(m, a);
  Rng rng(9);
  std::vector<double> u(12);
  std::vector<double> v(12);
  for (auto& x : u) x = rng.uniform(-1, 1);
  for (auto& x : v) x = rng.uniform(-1, 1);
  std::vector<double> mu(12);
  std::vector<double> mv(12);
  m.solve(u, mu);
  m.solve(v, mv);
  double uv = 0.0;
  double vu = 0.0;
  for (std::size_t i = 0; i < 12; ++i) {
    uv += u[i] * mv[i];
    vu += v[i] * mu[i];
  }
  EXPECT_NEAR(uv, vu, 1e-10);
}

/// Random sparse SPD matrix G = AᵀA + I (a gain-shaped system).
Csr random_gain(Index n, Rng& rng) {
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < 3 * n; ++r) {
    for (int k = 0; k < 3; ++k) {
      t.push_back({r, static_cast<Index>(rng.uniform_int(0, n - 1)),
                   rng.uniform(-1, 1)});
    }
  }
  const Csr a = Csr::from_triplets(3 * n, n, std::move(t));
  const std::vector<double> w(static_cast<std::size_t>(3 * n), 1.0);
  return add_diagonal(normal_matrix(a, w), 1.0);
}

/// Same pattern as `g`, every value scaled by 1 + eps·u with u ∈ [−1, 1]
/// drawn symmetrically: the next Gauss–Newton iteration's gain.
Csr perturb(const Csr& g, double eps, Rng& rng) {
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < g.rows(); ++r) {
    const auto [b, e] = g.row_range(r);
    for (Index k = b; k < e; ++k) {
      const Index c = g.col_idx()[static_cast<std::size_t>(k)];
      if (c > r) continue;
      const double v = g.values()[static_cast<std::size_t>(k)] *
                       (1.0 + eps * rng.uniform(-1, 1));
      t.push_back({r, c, v});
      if (c != r) t.push_back({c, r, v});
    }
  }
  return Csr::from_triplets(g.rows(), g.cols(), std::move(t));
}

TEST(FactorizeWithShift, PcgOnTheFactoredMatrixConvergesInOneStep) {
  Rng rng(31);
  const Csr g = random_gain(80, rng);
  SparseLdlt m;
  EXPECT_DOUBLE_EQ(shift_factor(m, g), 0.0);
  std::vector<double> b(80);
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<double> x(80, 0.0);
  CgOptions opts;
  opts.tolerance = 1e-12;
  const CgReport rep = pcg(g, b, x, m, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, 1);
}

TEST(FactorizeWithShift, PerturbedGainMatchesDirectSolve) {
  // The WLS pattern: factor the first gain, then precondition a moved one.
  Rng rng(32);
  const Csr g0 = random_gain(120, rng);
  const Csr g1 = perturb(g0, 0.05, rng);
  SparseLdlt m;
  shift_factor(m, g0);
  std::vector<double> b(120);
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<double> x(120, 0.0);
  CgOptions opts;
  opts.tolerance = 1e-12;
  const CgReport rep = pcg(g1, b, x, m, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(rep.iterations, 1);
  EXPECT_LT(rep.iterations, 20);

  SparseLdlt direct;
  direct.factorize(g1);
  const std::vector<double> want = direct.solve(b);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(x[i], want[i], 1e-10) << i;
  }
}

TEST(FactorizeWithShift, SingularMatrixTakesTheShiftRetry) {
  // Rank one: the second pivot is exactly zero.
  const Csr a = Csr::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  SparseLdlt m;
  EXPECT_GT(shift_factor(m, a), 0.0);
  std::vector<double> r{1.0, -1.0};
  std::vector<double> z(2);
  m.solve(r, z);
  EXPECT_TRUE(std::isfinite(z[0]) && std::isfinite(z[1]));
}

TEST(FactorizeWithShift, IndefiniteMatrixTakesTheShiftRetry) {
  // LDLᵀ factors diag(1, −2) without a zero pivot, but a negative pivot is
  // no preconditioner for PCG: the shift must lift it above zero.
  const Csr a = Csr::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, -2.0}});
  SparseLdlt m;
  EXPECT_GT(shift_factor(m, a), 2.0);
  std::vector<double> r{1.0, 1.0};
  std::vector<double> z(2);
  m.solve(r, z);
  EXPECT_GT(z[0], 0.0);
  EXPECT_GT(z[1], 0.0);
}

TEST(FactorizeWithShift, ZeroMatrixExhaustsTheRetries) {
  const Csr a = Csr::from_triplets(2, 2, {{0, 0, 0.0}, {1, 1, 0.0}});
  SparseLdlt m;
  EXPECT_THROW(shift_factor(m, a), ConvergenceFailure);
}

}  // namespace
}  // namespace gridse::sparse
