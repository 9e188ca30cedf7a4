#include "sparse/preconditioner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse/cg.hpp"
#include "sparse/normal_equations.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

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

TEST(LdltPreconditioner, IsASymmetricOperator) {
  // A symmetric preconditioner must satisfy uᵀ M⁻¹ v == vᵀ M⁻¹ u — required
  // for PCG correctness.
  const Csr a = tridiagonal_spd(12);
  const LdltPreconditioner m(a);
  Rng rng(9);
  std::vector<double> u(12);
  std::vector<double> v(12);
  for (auto& x : u) x = rng.uniform(-1, 1);
  for (auto& x : v) x = rng.uniform(-1, 1);
  std::vector<double> mu(12);
  std::vector<double> mv(12);
  m.apply(u, mu);
  m.apply(v, mv);
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

TEST(LdltPreconditioner, PcgOnTheFactoredMatrixConvergesInOneStep) {
  Rng rng(31);
  const Csr g = random_gain(80, rng);
  const LdltPreconditioner m(g);
  EXPECT_DOUBLE_EQ(m.shift(), 0.0);
  std::vector<double> b(80);
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<double> x(80, 0.0);
  CgOptions opts;
  opts.tolerance = 1e-12;
  const CgReport rep = pcg(g, b, x, m, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, 1);
}

TEST(LdltPreconditioner, PerturbedGainMatchesDirectSolve) {
  // The WLS pattern: factor the first gain, then precondition a moved one.
  Rng rng(32);
  const Csr g0 = random_gain(120, rng);
  const Csr g1 = perturb(g0, 0.05, rng);
  const LdltPreconditioner m(g0);
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

TEST(LdltPreconditioner, SingularMatrixTakesTheShiftRetry) {
  // Rank one: the second pivot is exactly zero.
  const Csr a = Csr::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  const LdltPreconditioner m(a);
  EXPECT_GT(m.shift(), 0.0);
  std::vector<double> r{1.0, -1.0};
  std::vector<double> z(2);
  m.apply(r, z);
  EXPECT_TRUE(std::isfinite(z[0]) && std::isfinite(z[1]));
}

TEST(LdltPreconditioner, IndefiniteMatrixTakesTheShiftRetry) {
  // LDLᵀ factors diag(1, −2) without a zero pivot, but a negative pivot is
  // no preconditioner for PCG: the shift must lift it above zero.
  const Csr a = Csr::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, -2.0}});
  const LdltPreconditioner m(a);
  EXPECT_GT(m.shift(), 2.0);
  std::vector<double> r{1.0, 1.0};
  std::vector<double> z(2);
  m.apply(r, z);
  EXPECT_GT(z[0], 0.0);
  EXPECT_GT(z[1], 0.0);
}

TEST(LdltPreconditioner, ZeroMatrixExhaustsTheRetries) {
  const Csr a = Csr::from_triplets(2, 2, {{0, 0, 0.0}, {1, 1, 0.0}});
  EXPECT_THROW(LdltPreconditioner{a}, ConvergenceFailure);
}

}  // namespace
}  // namespace gridse::sparse
