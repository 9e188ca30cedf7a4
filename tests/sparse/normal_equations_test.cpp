#include "sparse/normal_equations.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "grid/meas_generator.hpp"
#include "grid/meas_model.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "io/synthetic.hpp"
#include "sparse/dense.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

Csr random_tall(Index rows, Index cols, Rng& rng) {
  std::vector<Triplet<double>> t;
  for (Index r = 0; r < rows; ++r) {
    // a few entries per row, like a measurement Jacobian
    const int k = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < k; ++i) {
      t.push_back({r, static_cast<Index>(rng.uniform_int(0, cols - 1)),
                   rng.uniform(-2, 2)});
    }
  }
  return Csr::from_triplets(rows, cols, std::move(t));
}

TEST(NormalEquations, MatchesDenseHtWH) {
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const Index m = static_cast<Index>(rng.uniform_int(5, 40));
    const Index n = static_cast<Index>(rng.uniform_int(2, 10));
    const Csr h = random_tall(m, n, rng);
    std::vector<double> w(static_cast<std::size_t>(m));
    for (auto& v : w) v = rng.uniform(0.5, 10.0);

    const Csr g = normal_matrix(h, w);
    ASSERT_EQ(g.rows(), n);
    ASSERT_EQ(g.cols(), n);

    const auto hd = h.to_dense();
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        double want = 0.0;
        for (Index r = 0; r < m; ++r) {
          want += w[static_cast<std::size_t>(r)] *
                  hd[static_cast<std::size_t>(r) * n + i] *
                  hd[static_cast<std::size_t>(r) * n + j];
        }
        EXPECT_NEAR(g.value_at(i, j), want, 1e-10);
      }
    }
  }
}

TEST(NormalEquations, GainMatrixIsSymmetric) {
  Rng rng(19);
  const Csr h = random_tall(30, 8, rng);
  std::vector<double> w(30, 2.0);
  const Csr g = normal_matrix(h, w);
  for (Index i = 0; i < 8; ++i) {
    for (Index j = 0; j < 8; ++j) {
      EXPECT_NEAR(g.value_at(i, j), g.value_at(j, i), 1e-12);
    }
  }
}

TEST(NormalEquations, RhsMatchesDense) {
  Rng rng(23);
  const Csr h = random_tall(20, 6, rng);
  std::vector<double> w(20);
  std::vector<double> r(20);
  for (auto& v : w) v = rng.uniform(0.5, 4.0);
  for (auto& v : r) v = rng.uniform(-1, 1);
  const auto rhs = normal_rhs(h, w, r);
  const auto hd = h.to_dense();
  for (Index c = 0; c < 6; ++c) {
    double want = 0.0;
    for (Index row = 0; row < 20; ++row) {
      want += hd[static_cast<std::size_t>(row) * 6 + c] *
              w[static_cast<std::size_t>(row)] * r[static_cast<std::size_t>(row)];
    }
    EXPECT_NEAR(rhs[static_cast<std::size_t>(c)], want, 1e-10);
  }
}

TEST(NormalEquations, WeightSizeMismatchThrows) {
  Rng rng(29);
  const Csr h = random_tall(10, 4, rng);
  std::vector<double> w(9, 1.0);
  EXPECT_THROW(normal_matrix(h, w), InternalError);
}

TEST(NormalEquations, AddDiagonal) {
  const Csr g = Csr::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}});
  const Csr g2 = add_diagonal(g, 0.5);
  EXPECT_DOUBLE_EQ(g2.value_at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(g2.value_at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g2.value_at(1, 1), 0.5);  // structurally absent before
}

/// NormalAssembler::analyze as it was built from triplets: G's pattern is
/// from_triplets of every outer-product pair plus the diagonal, and each
/// target a binary search of its G row.
struct TripletReference {
  std::vector<Index> g_ptr;
  std::vector<Index> g_col;
  std::vector<Index> targets;
};

TripletReference triplet_reference(const Csr& h) {
  std::vector<Triplet<double>> triplets;
  const auto col = h.col_idx();
  for (Index r = 0; r < h.rows(); ++r) {
    const auto [b, e] = h.row_range(r);
    for (Index i = b; i < e; ++i) {
      for (Index j = b; j < e; ++j) {
        triplets.push_back({col[static_cast<std::size_t>(i)],
                            col[static_cast<std::size_t>(j)], 0.0});
      }
    }
  }
  for (Index i = 0; i < h.cols(); ++i) triplets.push_back({i, i, 0.0});
  const Csr g = Csr::from_triplets(h.cols(), h.cols(), std::move(triplets));
  TripletReference ref{{g.row_ptr().begin(), g.row_ptr().end()},
                       {g.col_idx().begin(), g.col_idx().end()},
                       {}};
  for (Index r = 0; r < h.rows(); ++r) {
    const auto [b, e] = h.row_range(r);
    for (Index i = b; i < e; ++i) {
      const auto gr =
          static_cast<std::size_t>(col[static_cast<std::size_t>(i)]);
      const auto first = ref.g_col.begin() + ref.g_ptr[gr];
      const auto last = ref.g_col.begin() + ref.g_ptr[gr + 1];
      for (Index j = b; j < e; ++j) {
        const auto it =
            std::lower_bound(first, last, col[static_cast<std::size_t>(j)]);
        ref.targets.push_back(static_cast<Index>(it - ref.g_col.begin()));
      }
    }
  }
  return ref;
}

void expect_matches_triplet_reference(const Csr& h) {
  const NormalAssembler assembler = NormalAssembler::analyze(h);
  const TripletReference ref = triplet_reference(h);
  const std::vector<double> w(static_cast<std::size_t>(h.rows()), 1.0);
  const Csr g = assembler.assemble(h, w);
  EXPECT_TRUE(std::ranges::equal(g.row_ptr(), ref.g_ptr));
  EXPECT_TRUE(std::ranges::equal(g.col_idx(), ref.g_col));
  EXPECT_TRUE(std::ranges::equal(assembler.targets(), ref.targets));
}

// The assembler's pattern and targets are built without a triplet sort;
// they must equal the triplet-built ones exactly, so that every gain it
// fills is bitwise the one it filled before.
TEST(NormalAssembler, PatternAndTargetsMatchTripletReference) {
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    const Index m = static_cast<Index>(rng.uniform_int(1, 80));
    const Index n = static_cast<Index>(rng.uniform_int(1, 30));
    SCOPED_TRACE(trial);
    expect_matches_triplet_reference(random_tall(m, n, rng));
  }
  // An H with empty rows and untouched columns.
  expect_matches_triplet_reference(
      Csr::from_triplets(4, 6, std::vector<Triplet<double>>{{1, 4, 1.0},
                                                            {1, 0, 2.0},
                                                            {3, 4, 1.0}}));
  const io::Case ieee14 = io::ieee14();
  const io::GeneratedCase ieee118 = io::ieee118_dse();
  for (const grid::Network* net : {&ieee14.network, &ieee118.kase.network}) {
    const grid::PowerFlowResult pf = grid::solve_power_flow(*net);
    grid::MeasurementGenerator gen(*net, {});
    Rng noise(31);
    const grid::MeasurementSet set = gen.generate(pf.state, noise);
    const grid::MeasurementModel model(
        *net, grid::StateIndex(net->num_buses(), net->slack_bus()));
    expect_matches_triplet_reference(model.jacobian(set, pf.state));
  }
}

}  // namespace
}  // namespace gridse::sparse
