#include "sparse/dense.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

DenseMatrix random_spd(std::size_t n, Rng& rng) {
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1, 1);
    }
  }
  DenseMatrix spd = a.transpose().multiply(a);
  for (std::size_t i = 0; i < n; ++i) {
    spd(i, i) += static_cast<double>(n);  // safely positive definite
  }
  return spd;
}

TEST(Dense, MultiplyVector) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  std::vector<double> x{1, 1, 1};
  std::vector<double> y(2);
  a.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Dense, MatrixMultiplyAndTranspose) {
  Rng rng(3);
  DenseMatrix a(4, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      a(i, j) = rng.uniform(-1, 1);
    }
  }
  const DenseMatrix ata = a.transpose().multiply(a);
  EXPECT_EQ(ata.rows(), 3u);
  EXPECT_EQ(ata.cols(), 3u);
  // symmetry
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(ata(i, j), ata(j, i), 1e-14);
    }
  }
}

TEST(Dense, CholeskySolveRecoversSolution) {
  Rng rng(5);
  for (const std::size_t n : {1u, 2u, 5u, 20u, 50u}) {
    const DenseMatrix a = random_spd(n, rng);
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-2, 2);
    std::vector<double> b(n);
    a.multiply(x_true, b);
    const auto x = a.solve_spd(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Dense, CholeskyRejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_THROW(a.solve_spd(std::vector<double>{1, 1}), ConvergenceFailure);
}

TEST(Dense, ConditionEstimateIdentityIsOne) {
  DenseMatrix id(5, 5);
  for (std::size_t i = 0; i < 5; ++i) id(i, i) = 1.0;
  EXPECT_NEAR(id.condition_estimate_spd(), 1.0, 1e-6);
}

TEST(Dense, ConditionEstimateDiagonal) {
  DenseMatrix d(3, 3);
  d(0, 0) = 100.0;
  d(1, 1) = 10.0;
  d(2, 2) = 1.0;
  EXPECT_NEAR(d.condition_estimate_spd(), 100.0, 1.0);
}

}  // namespace
}  // namespace gridse::sparse
