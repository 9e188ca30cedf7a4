#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

Csr random_sparse(Index rows, Index cols, double density, Rng& rng) {
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        t.push_back({r, c, rng.uniform(-2.0, 2.0)});
      }
    }
  }
  return Csr::from_triplets(rows, cols, std::move(t));
}

TEST(Csr, FromTripletsSumsDuplicates) {
  const Csr m = Csr::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, -1.0}, {0, 1, 4.0}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.value_at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.value_at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.value_at(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.value_at(1, 0), 0.0);
}

TEST(Csr, OutOfRangeTripletThrows) {
  EXPECT_THROW(Csr::from_triplets(2, 2, {{2, 0, 1.0}}), InternalError);
  EXPECT_THROW(Csr::from_triplets(2, 2, {{0, -1, 1.0}}), InternalError);
}

TEST(Csr, EmptyMatrix) {
  const Csr m = Csr::from_triplets(3, 4, {});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 0u);
  std::vector<double> x(4, 1.0);
  std::vector<double> y(3, 99.0);
  m.multiply(x, y);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Csr, IdentityMultiplyIsIdentity) {
  const Csr id = Csr::identity(5);
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y(5);
  id.multiply(x, y);
  EXPECT_EQ(x, y);
}

TEST(Csr, MultiplyMatchesDenseReference) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Index rows = static_cast<Index>(rng.uniform_int(1, 20));
    const Index cols = static_cast<Index>(rng.uniform_int(1, 20));
    const Csr m = random_sparse(rows, cols, 0.3, rng);
    const auto dense = m.to_dense();
    std::vector<double> x(static_cast<std::size_t>(cols));
    for (auto& v : x) v = rng.uniform(-1, 1);
    std::vector<double> y(static_cast<std::size_t>(rows));
    m.multiply(x, y);
    for (Index r = 0; r < rows; ++r) {
      double want = 0.0;
      for (Index c = 0; c < cols; ++c) {
        want += dense[static_cast<std::size_t>(r) * cols + c] *
                x[static_cast<std::size_t>(c)];
      }
      EXPECT_NEAR(y[static_cast<std::size_t>(r)], want, 1e-12);
    }
  }
}

TEST(Csr, MultiplyTransposeMatchesExplicitTranspose) {
  Rng rng(37);
  const Csr m = random_sparse(15, 9, 0.35, rng);
  const Csr mt = m.transpose();
  std::vector<double> x(15);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y1(9);
  std::vector<double> y2(9);
  m.multiply_transpose(x, y1);
  mt.multiply(x, y2);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-12);
  }
}

TEST(Csr, TransposeTwiceIsIdentity) {
  Rng rng(41);
  const Csr m = random_sparse(12, 7, 0.4, rng);
  const Csr mtt = m.transpose().transpose();
  EXPECT_EQ(m.to_dense(), mtt.to_dense());
}

TEST(Csr, DiagonalExtraction) {
  const Csr m =
      Csr::from_triplets(3, 3, {{0, 0, 1.0}, {1, 2, 5.0}, {2, 2, 3.0}});
  const auto d = m.diagonal();
  EXPECT_EQ(d, (std::vector<double>{1.0, 0.0, 3.0}));
}

TEST(Csr, RowRangeAndColumnSorted) {
  Rng rng(43);
  const Csr m = random_sparse(10, 10, 0.5, rng);
  for (Index r = 0; r < 10; ++r) {
    const auto [b, e] = m.row_range(r);
    for (Index k = b; k + 1 < e; ++k) {
      EXPECT_LT(m.col_idx()[static_cast<std::size_t>(k)],
                m.col_idx()[static_cast<std::size_t>(k + 1)]);
    }
  }
}

TEST(CsrRowBuilder, EqualsFromTripletsBitForBit) {
  // Rows emitted in order, each with unsorted columns; row 1 repeats a
  // column (summed in emission order), row 3 is empty.
  const std::vector<std::vector<Triplet<double>>> rows = {
      {{0, 4, 0.1}, {0, 0, -2.5}, {0, 2, 1.0 / 3.0}},
      {{1, 3, 0.7}, {1, 1, 1e-3}, {1, 3, -0.2 / 3.0}, {1, 0, 5.0}},
      {{2, 2, 4.0}},
      {},
      {{4, 1, 2.0 / 7.0}, {4, 4, -1.0}, {4, 0, 0.3}}};
  CsrRowBuilder<double> builder(5, 16);
  std::vector<Triplet<double>> all;
  for (const auto& row : rows) {
    for (const auto& t : row) {
      builder.add(t.col, t.value);
      all.push_back(t);
    }
    builder.end_row();
  }
  const Csr got = std::move(builder).finish();
  const Csr want = Csr::from_triplets(5, 5, std::move(all));
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(std::equal(got.row_ptr().begin(), got.row_ptr().end(),
                         want.row_ptr().begin(), want.row_ptr().end()));
  EXPECT_TRUE(std::equal(got.col_idx().begin(), got.col_idx().end(),
                         want.col_idx().begin(), want.col_idx().end()));
  // Bitwise: no tolerance.
  EXPECT_TRUE(std::equal(got.values().begin(), got.values().end(),
                         want.values().begin(), want.values().end()));
  EXPECT_EQ(got.value_at(1, 3), 0.7 + -0.2 / 3.0);
  EXPECT_EQ(got.nnz(), 10u);
}

TEST(CsrRowBuilder, RejectsAColumnOutOfRange) {
  CsrRowBuilder<double> builder(3, 4);
  EXPECT_THROW(builder.add(3, 1.0), InternalError);
  EXPECT_THROW(builder.add(-1, 1.0), InternalError);
}

TEST(CsrComplex, ComplexMultiply) {
  using C = std::complex<double>;
  const CsrComplex m = CsrComplex::from_triplets(
      2, 2, {{0, 0, C(1, 1)}, {0, 1, C(0, -1)}, {1, 1, C(2, 0)}});
  std::vector<C> x{C(1, 0), C(0, 1)};
  std::vector<C> y(2);
  m.multiply(x, y);
  EXPECT_NEAR(std::abs(y[0] - (C(1, 1) * C(1, 0) + C(0, -1) * C(0, 1))), 0.0,
              1e-15);
  EXPECT_NEAR(std::abs(y[1] - C(0, 2)), 0.0, 1e-15);
}

}  // namespace
}  // namespace gridse::sparse
