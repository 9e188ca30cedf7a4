#include "sparse/gmres.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sparse/ldlt.hpp"
#include "sparse/vector_ops.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

/// A random nonsymmetric matrix that is diagonally dominant by rows, with
/// `per_row` off-diagonal entries of each sign-mixed row.
Csr random_nonsymmetric(Index n, int per_row, Rng& rng) {
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int k = 0; k < per_row && n > 1; ++k) {
      const auto c = static_cast<Index>(rng.uniform_int(0, n - 1));
      if (c == r) continue;
      const double v = rng.uniform(-1, 1);
      row_sum += std::abs(v);
      t.push_back({r, c, v});
    }
    t.push_back({r, r, row_sum + rng.uniform(0.5, 1.5)});
  }
  return Csr::from_triplets(n, n, std::move(t));
}

std::vector<double> rhs_of(const Csr& a, const std::vector<double>& x) {
  std::vector<double> b(x.size());
  a.multiply(x, b);
  return b;
}

const Preconditioner kIdentity = [](std::span<const double> v,
                                    std::span<double> z) { copy(v, z); };

TEST(Gmres, SolvesRandomNonsymmetricSystems) {
  Rng rng(7);
  GmresWorkspace work;
  for (const Index n : {1, 2, 5, 40, 120}) {
    const Csr a = random_nonsymmetric(n, 4, rng);
    std::vector<double> x_true(static_cast<std::size_t>(n));
    for (double& v : x_true) v = rng.uniform(-2, 2);
    const std::vector<double> b = rhs_of(a, x_true);
    std::vector<double> x(x_true.size(), 0.0);
    const CgReport rep = gmres(a, b, x, kIdentity, work, 1e-12);
    EXPECT_TRUE(rep.converged) << "n=" << n;
    EXPECT_LE(rep.relative_residual, 1e-12) << "n=" << n;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "n=" << n;
    }
  }
}

// A shifted, convection-dominated 1-D operator: eigenvalues spread over
// [0.1, 4.1], so GMRES without a preconditioner needs more than one
// 50-vector cycle.
Csr shifted_convection_diffusion(Index n) {
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < n; ++r) {
    t.push_back({r, r, 2.1});
    if (r > 0) t.push_back({r, r - 1, -1.3});
    if (r + 1 < n) t.push_back({r, r + 1, -0.7});
  }
  return Csr::from_triplets(n, n, std::move(t));
}

// The reported residual is the true ‖b − Ax‖/‖b‖ of the returned x, also
// across restarts.
TEST(Gmres, RestartsReportTheTrueResidual) {
  Rng rng(11);
  const Csr a = shifted_convection_diffusion(400);
  std::vector<double> x_true(400);
  for (double& v : x_true) v = rng.uniform(-1, 1);
  const std::vector<double> b = rhs_of(a, x_true);
  GmresWorkspace work;
  std::vector<double> x(400, 0.0);
  const CgReport rep = gmres(a, b, x, kIdentity, work, 1e-11);
  ASSERT_TRUE(rep.converged);
  EXPECT_GT(rep.iterations, 50);
  std::vector<double> r = rhs_of(a, x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  EXPECT_NEAR(rep.relative_residual, norm2(r) / norm2(b), 1e-15);
  EXPECT_LE(rep.relative_residual, 1e-11);
}

// With M = A the preconditioned operator is the identity: one Arnoldi step
// solves the system.
TEST(Gmres, ExactPreconditionerConvergesInOneStep) {
  Rng rng(3);
  const Csr raw = random_nonsymmetric(30, 3, rng);
  // A symmetric A, so its LDLᵀ factor is an exact preconditioner.
  const Csr at = raw.transpose();
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < 30; ++r) {
    for (const Csr* m : {&raw, &at}) {
      const auto [b, e] = m->row_range(r);
      for (Index k = b; k < e; ++k) {
        t.push_back({r, m->col_idx()[static_cast<std::size_t>(k)],
                     m->values()[static_cast<std::size_t>(k)]});
      }
    }
  }
  const Csr a = Csr::from_triplets(30, 30, std::move(t));
  SparseLdlt factor;
  factor.factorize(a);
  const Preconditioner exact = [&factor](std::span<const double> v,
                                         std::span<double> z) {
    factor.solve(v, z);
  };
  std::vector<double> x_true(30, 0.5);
  const std::vector<double> b = rhs_of(a, x_true);
  GmresWorkspace work;
  std::vector<double> x(30, 0.0);
  const CgReport rep = gmres(a, b, x, exact, work, 1e-12);
  ASSERT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, 1);
}

TEST(Gmres, ZeroRhsGivesZero) {
  Rng rng(5);
  const Csr a = random_nonsymmetric(10, 3, rng);
  std::vector<double> b(10, 0.0);
  std::vector<double> x(10, 1.0);
  GmresWorkspace work;
  const CgReport rep = gmres(a, b, x, kIdentity, work, 1e-12);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, 0);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

// The cyclic shift A e_i = e_{i+1 mod n} with b = e_0 is GMRES's classic
// stagnation case: no Krylov space of dimension below n contains a better
// iterate than x = 0, so the first 50-vector cycle adds an exactly zero
// update and the stall ends the solve there instead of at the cap.
TEST(Gmres, StalledCycleEndsTheSolve) {
  constexpr Index n = 60;
  std::vector<Triplet<double>> t;
  for (Index c = 0; c < n; ++c) t.push_back({(c + 1) % n, c, 1.0});
  const Csr a = Csr::from_triplets(n, n, std::move(t));
  std::vector<double> b(n, 0.0);
  b[0] = 1.0;
  GmresWorkspace work;
  std::vector<double> x(n, 0.0);
  const CgReport rep = gmres(a, b, x, kIdentity, work, 1e-12);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.iterations, 50);
  EXPECT_EQ(rep.relative_residual, 1.0);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

// A diagonal system with 60 distinct eigenvalues spread over [1, 1e4] at
// tolerance 0: the first 50-vector cycle shrinks the residual, so no stall
// stops it, and the second runs into the cap of one Arnoldi step per
// unknown.
TEST(Gmres, IterationCapReportsNotConverged) {
  constexpr Index n = 60;
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) {
    t.push_back({i, i, std::pow(10.0, 4.0 * i / (n - 1))});
  }
  const Csr a = Csr::from_triplets(n, n, std::move(t));
  const std::vector<double> b(n, 1.0);
  GmresWorkspace work;
  std::vector<double> x(n, 0.0);
  const CgReport rep = gmres(a, b, x, kIdentity, work, 0.0);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.iterations, n);
  EXPECT_GT(rep.relative_residual, 0.0);
  EXPECT_LT(rep.relative_residual, 1e-3);
}

}  // namespace
}  // namespace gridse::sparse
