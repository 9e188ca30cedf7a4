#include "sparse/cg.hpp"

#include <gtest/gtest.h>

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

class PcgAcrossPreconditioners
    : public ::testing::TestWithParam<PreconditionerKind> {};

TEST_P(PcgAcrossPreconditioners, SolvesRandomSpdSystems) {
  Rng rng(101);
  for (const Index n : {1, 2, 5, 20, 60}) {
    const Csr g = random_spd(n, rng);
    std::vector<double> x_true(static_cast<std::size_t>(n));
    for (auto& v : x_true) v = rng.uniform(-2, 2);
    std::vector<double> b(static_cast<std::size_t>(n));
    g.multiply(x_true, b);

    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    const auto precond = make_preconditioner(GetParam(), g);
    CgOptions opts;
    opts.tolerance = 1e-12;
    opts.max_iterations = 10 * n + 10;
    const CgReport report = pcg(g, b, x, *precond, opts);
    EXPECT_TRUE(report.converged) << "n=" << n;
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                  x_true[static_cast<std::size_t>(i)], 1e-6)
          << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PcgAcrossPreconditioners,
                         ::testing::Values(PreconditionerKind::kNone,
                                           PreconditionerKind::kJacobi,
                                           PreconditionerKind::kSsor,
                                           PreconditionerKind::kIc0,
                                           PreconditionerKind::kLdlt),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case PreconditionerKind::kNone:
                               return "none";
                             case PreconditionerKind::kJacobi:
                               return "jacobi";
                             case PreconditionerKind::kSsor:
                               return "ssor";
                             case PreconditionerKind::kIc0:
                               return "ic0";
                             case PreconditionerKind::kLdlt:
                               return "ldlt";
                           }
                           return "unknown";
                         });

TEST(Pcg, ZeroRhsGivesZeroSolution) {
  Rng rng(7);
  const Csr g = random_spd(8, rng);
  std::vector<double> b(8, 0.0);
  std::vector<double> x(8, 5.0);  // nonzero initial guess
  const CgReport report = cg(g, b, x);
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

  const JacobiPreconditioner jac(g);
  std::vector<double> cold(40, 0.0);
  const auto cold_rep = pcg(g, b, cold, jac);

  std::vector<double> warm = x_true;
  for (auto& v : warm) v += 1e-6;  // near the solution
  const auto warm_rep = pcg(g, b, warm, jac);
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
  const CgReport report = cg(g, b, x, opts);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.iterations, 2);
  EXPECT_GT(report.relative_residual, 0.0);
}

TEST(Pcg, IndefiniteMatrixThrows) {
  // [[1, 2], [2, 1]] has a negative eigenvalue; pᵀAp goes nonpositive.
  const Csr a = Csr::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 1.0}});
  std::vector<double> b{1.0, -1.0};
  std::vector<double> x(2, 0.0);
  EXPECT_THROW(cg(a, b, x), InternalError);
}

TEST(Pcg, PreconditioningReducesIterationsOnIllConditioned) {
  // Diagonal matrix with a wide spread: Jacobi solves it in O(1) iterations.
  std::vector<Triplet<double>> t;
  const Index n = 64;
  for (Index i = 0; i < n; ++i) {
    t.push_back({i, i, std::pow(10.0, static_cast<double>(i % 5))});
  }
  const Csr g = Csr::from_triplets(n, n, std::move(t));
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);

  std::vector<double> x0(static_cast<std::size_t>(n), 0.0);
  const auto plain = cg(g, b, x0);
  std::vector<double> x1(static_cast<std::size_t>(n), 0.0);
  const JacobiPreconditioner jac(g);
  const auto pre = pcg(g, b, x1, jac);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
}

}  // namespace
}  // namespace gridse::sparse
