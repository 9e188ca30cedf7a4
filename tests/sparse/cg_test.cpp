#include "sparse/cg.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sparse/normal_equations.hpp"
#include "sparse/vector_ops.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

/// Random sparse SPD matrix: G = AᵀA + n·I from a sparse rectangular A.
Csr random_spd(Index n, Rng& rng) {
  std::vector<Triplet<double>> t;
  const Index m = n * 3;
  for (Index r = 0; r < m; ++r) {
    const int k = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < k; ++i) {
      t.push_back({r, static_cast<Index>(rng.uniform_int(0, n - 1)),
                   rng.uniform(-1, 1)});
    }
  }
  const Csr a = Csr::from_triplets(m, n, std::move(t));
  std::vector<double> w(static_cast<std::size_t>(m), 1.0);
  return add_diagonal(normal_matrix(a, w), 0.5);
}

/// The LDLᵀ factor of G + 0.2·I: a nearby SPD matrix of G's pattern, as the
/// first gain of a WLS solve is to its later ones.
SparseLdlt nearby_factor(const Csr& g) {
  const Csr nearby = add_diagonal(g, 0.2);
  SparseLdlt m;
  m.factorize_with_shift(
      nearby,
      std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(nearby)));
  return m;
}

TEST(Pcg, SolvesRandomSpdSystems) {
  Rng rng(101);
  for (const Index n : {1, 2, 5, 20, 60}) {
    const Csr g = random_spd(n, rng);
    std::vector<double> x_true(static_cast<std::size_t>(n));
    for (auto& v : x_true) v = rng.uniform(-2, 2);
    std::vector<double> b(static_cast<std::size_t>(n));
    g.multiply(x_true, b);

    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    CgOptions opts;
    opts.tolerance = 1e-12;
    opts.max_iterations = 10 * n + 10;
    SparseLdlt m = nearby_factor(g);
    const CgReport report = pcg(g, b, x, m, opts);
    EXPECT_TRUE(report.converged) << "n=" << n;
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                  x_true[static_cast<std::size_t>(i)], 1e-6)
          << "n=" << n;
    }
  }
}

TEST(Pcg, ZeroRhsGivesZeroSolution) {
  Rng rng(7);
  const Csr g = random_spd(8, rng);
  std::vector<double> b(8, 0.0);
  std::vector<double> x(8, 5.0);  // nonzero initial guess
  SparseLdlt m = nearby_factor(g);
  const CgReport report = pcg(g, b, x, m);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, 0);
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Pcg, WarmStartConvergesFaster) {
  Rng rng(11);
  const Csr g = random_spd(40, rng);
  std::vector<double> x_true(40);
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  std::vector<double> b(40);
  g.multiply(x_true, b);

  SparseLdlt m = nearby_factor(g);
  std::vector<double> cold(40, 0.0);
  const auto cold_rep = pcg(g, b, cold, m);

  std::vector<double> warm = x_true;
  for (auto& v : warm) v += 1e-6;  // near the solution
  const auto warm_rep = pcg(g, b, warm, m);
  EXPECT_LT(warm_rep.iterations, cold_rep.iterations);
}

TEST(Pcg, IterationCapReportsNotConverged) {
  Rng rng(13);
  const Csr g = random_spd(50, rng);
  std::vector<double> b(50, 1.0);
  std::vector<double> x(50, 0.0);
  CgOptions opts;
  opts.tolerance = 1e-14;
  opts.max_iterations = 2;
  SparseLdlt m = nearby_factor(g);
  const CgReport report = pcg(g, b, x, m, opts);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.iterations, 2);
  EXPECT_GT(report.relative_residual, 0.0);
}

TEST(Pcg, IndefiniteMatrixThrows) {
  // [[1, 2], [2, 1]] has a negative eigenvalue; pᵀAp goes nonpositive. Its
  // SPD neighbour [[3, 2], [2, 3]] preconditions it.
  const Csr a = Csr::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 1.0}});
  const Csr neighbour = add_diagonal(a, 2.0);
  SparseLdlt m;
  EXPECT_DOUBLE_EQ(
      m.factorize_with_shift(neighbour, std::make_shared<const SymbolicPlan>(
                                            SymbolicPlan::analyze(neighbour))),
      0.0);
  std::vector<double> b{1.0, -1.0};
  std::vector<double> x(2, 0.0);
  EXPECT_THROW(pcg(a, b, x, m), InternalError);
}

}  // namespace
}  // namespace gridse::sparse
