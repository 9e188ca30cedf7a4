// The supernodal LDLᵀ kernel: the fundamental supernode partition against a
// brute-force symbolic elimination, solves against the dense reference,
// the zero/negative pivot contract, the structural factor size on real gain
// matrices, bit-identity across threads, and a seeded fuzz over random
// sparse SPD patterns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "decomp/decomposition.hpp"
#include "decomp/subsystem_model.hpp"
#include "grid/meas_generator.hpp"
#include "grid/meas_model.hpp"
#include "io/case14.hpp"
#include "io/synthetic.hpp"
#include "sparse/dense.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/normal_equations.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

using Pattern = std::vector<std::vector<char>>;

/// Lower pattern of L for the plan's permuted matrix, by dense boolean
/// elimination: column k's rows are {i > k : filled(i, k)}.
Pattern reference_factor_pattern(const SymbolicPlan& plan) {
  const auto n = static_cast<std::size_t>(plan.dim());
  Pattern m(n, std::vector<char>(n, 0));
  const auto bp = plan.permuted_row_ptr();
  const auto bc = plan.permuted_col_idx();
  for (std::size_t i = 0; i < n; ++i) {
    for (auto p = static_cast<std::size_t>(bp[i]);
         p < static_cast<std::size_t>(bp[i + 1]); ++p) {
      m[i][static_cast<std::size_t>(bc[p])] = 1;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!m[i][k]) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        if (m[j][k]) m[i][j] = m[j][i] = 1;
      }
    }
  }
  return m;
}

std::vector<Index> column_rows(const Pattern& m, std::size_t k) {
  std::vector<Index> rows;
  for (std::size_t i = k + 1; i < m.size(); ++i) {
    if (m[i][k]) rows.push_back(static_cast<Index>(i));
  }
  return rows;
}

/// Check the plan's supernodes against the definition: column j extends
/// j-1's supernode iff L(:,j-1) = {j} ∪ L(:,j) and j-1 is j's only child in
/// the elimination tree; each supernode's rows are its columns followed by
/// its first column's rows below the block. Also checks factor_nnz.
void expect_fundamental_supernodes(const SymbolicPlan& plan) {
  const Pattern m = reference_factor_pattern(plan);
  const auto n = m.size();
  std::vector<std::vector<Index>> col(n);
  std::vector<Index> parent(n, -1);
  std::vector<int> children(n, 0);
  std::size_t nnz = 0;
  for (std::size_t k = 0; k < n; ++k) {
    col[k] = column_rows(m, k);
    nnz += col[k].size();
    if (!col[k].empty()) {
      parent[k] = col[k].front();
      ++children[static_cast<std::size_t>(col[k].front())];
    }
  }
  EXPECT_EQ(plan.factor_nnz(), nnz);
  std::vector<Index> super_ptr{0};
  for (std::size_t j = 1; j < n; ++j) {
    std::vector<Index> expect{static_cast<Index>(j)};
    expect.insert(expect.end(), col[j].begin(), col[j].end());
    const bool extends = parent[j - 1] == static_cast<Index>(j) &&
                         children[j] == 1 && col[j - 1] == expect;
    if (!extends) super_ptr.push_back(static_cast<Index>(j));
  }
  if (n > 0) super_ptr.push_back(static_cast<Index>(n));
  std::vector<Index> got{0};
  for (const auto& sn : plan.supernodes()) got.push_back(sn.first + sn.width);
  ASSERT_EQ(got, super_ptr);

  std::size_t stored = 0;
  for (std::size_t s = 0; s + 1 < super_ptr.size(); ++s) {
    const Index first = super_ptr[s];
    const Index last = super_ptr[s + 1] - 1;
    std::vector<Index> expect;
    for (Index j = first; j <= last; ++j) expect.push_back(j);
    for (const Index i : col[static_cast<std::size_t>(first)]) {
      if (i > last) expect.push_back(i);
    }
    const auto& sn = plan.supernodes()[s];
    const auto rows = plan.super_rows().subspan(
        static_cast<std::size_t>(sn.row_begin),
        static_cast<std::size_t>(sn.rows));
    EXPECT_EQ(std::vector<Index>(rows.begin(), rows.end()), expect)
        << "supernode " << s;
    for (Index j = first; j <= last; ++j) {
      EXPECT_EQ(plan.col_super()[static_cast<std::size_t>(j)],
                static_cast<Index>(s));
    }
    const auto w = static_cast<std::size_t>(last - first + 1);
    stored += w * (w - 1) / 2 + w * (expect.size() - w);
  }
  // The panels below and inside each diagonal block hold exactly L.
  EXPECT_EQ(stored, plan.factor_nnz());
  // Panels are laid out back to back.
  std::size_t offset = 0;
  Index max_below = 0;
  for (const auto& sn : plan.supernodes()) {
    EXPECT_EQ(sn.value_offset, offset);
    offset += static_cast<std::size_t>(sn.rows) *
              static_cast<std::size_t>(sn.width);
    max_below = std::max(max_below, sn.rows - sn.width);
  }
  EXPECT_EQ(plan.panel_size(), offset);
  EXPECT_EQ(plan.max_below(), max_below);
}

Csr symmetric(Index n, const std::vector<std::pair<Index, Index>>& edges,
              double diag) {
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) t.push_back({i, i, diag});
  for (const auto& [i, j] : edges) {
    t.push_back({i, j, -1.0});
    t.push_back({j, i, -1.0});
  }
  return Csr::from_triplets(n, n, std::move(t));
}

TEST(SupernodePartition, DenseMatrixIsOneSupernode) {
  const Index n = 12;
  std::vector<std::pair<Index, Index>> edges;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) edges.emplace_back(i, j);
  }
  const SymbolicPlan plan = SymbolicPlan::analyze(symmetric(n, edges, 2.0 * n));
  ASSERT_EQ(plan.supernodes().size(), 1u);
  EXPECT_EQ(plan.supernodes()[0].width, n);
  EXPECT_EQ(plan.factor_nnz(), static_cast<std::size_t>(n * (n - 1) / 2));
  expect_fundamental_supernodes(plan);
}

TEST(SupernodePartition, TridiagonalHasNoWideSupernode) {
  const Index n = 30;
  std::vector<std::pair<Index, Index>> edges;
  for (Index i = 1; i < n; ++i) edges.emplace_back(i, i - 1);
  const SymbolicPlan plan = SymbolicPlan::analyze(symmetric(n, edges, 3.0));
  EXPECT_EQ(plan.factor_nnz(), static_cast<std::size_t>(n - 1));
  for (const auto& sn : plan.supernodes()) EXPECT_LE(sn.width, 2);
  expect_fundamental_supernodes(plan);
}

TEST(SupernodePartition, ArrowheadLeavesAreSingleColumns) {
  // AMD eliminates the hub last or next to last: every leaf but the last is
  // its own supernode with the hub as its one row below the diagonal, and
  // the hub shares the root supernode with the last leaf.
  const Index n = 25;
  std::vector<std::pair<Index, Index>> edges;
  for (Index i = 1; i < n; ++i) edges.emplace_back(i, 0);
  const SymbolicPlan plan = SymbolicPlan::analyze(symmetric(n, edges, 30.0));
  const auto supernodes = plan.supernodes();
  ASSERT_EQ(supernodes.size(), static_cast<std::size_t>(n - 1));
  const Index hub = plan.perm_inv()[0];
  EXPECT_GE(hub, n - 2);
  EXPECT_EQ(supernodes.back().first, n - 2);
  for (std::size_t s = 0; s + 1 < supernodes.size(); ++s) {
    ASSERT_EQ(supernodes[s].rows, 2);
    EXPECT_EQ(plan.super_rows()[static_cast<std::size_t>(
                  supernodes[s].row_begin + 1)],
              hub);
  }
  expect_fundamental_supernodes(plan);
}

TEST(SupernodePartition, BlockDiagonalGivesOneSupernodePerBlock) {
  const Index blocks = 4;
  const Index size = 7;
  std::vector<std::pair<Index, Index>> edges;
  for (Index b = 0; b < blocks; ++b) {
    for (Index i = 0; i < size; ++i) {
      for (Index j = 0; j < i; ++j) {
        edges.emplace_back(b * size + i, b * size + j);
      }
    }
  }
  const SymbolicPlan plan =
      SymbolicPlan::analyze(symmetric(blocks * size, edges, 20.0));
  ASSERT_EQ(plan.supernodes().size(), static_cast<std::size_t>(blocks));
  for (const auto& sn : plan.supernodes()) {
    EXPECT_EQ(sn.width, size);
    // No rows below the diagonal block: blocks do not couple.
    EXPECT_EQ(sn.rows, size);
  }
  expect_fundamental_supernodes(plan);
}

/// Random SPD matrix with dense cliques (wide supernodes) on a sparse
/// random background (narrow ones).
Csr clique_spd(Index n, Index cliques, Index clique_size, double density,
               Rng& rng) {
  std::vector<std::vector<double>> a(static_cast<std::size_t>(n),
                                     std::vector<double>(n, 0.0));
  const auto couple = [&](Index i, Index j) {
    if (i == j) return;
    const double v = rng.uniform(-0.5, 0.5);
    a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
    a[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = v;
  };
  for (Index c = 0; c < cliques; ++c) {
    std::vector<Index> members(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) members[static_cast<std::size_t>(i)] = i;
    rng.shuffle(members);
    members.resize(static_cast<std::size_t>(std::min(clique_size, n)));
    for (const Index i : members) {
      for (const Index j : members) couple(i, j);
    }
  }
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < i; ++j) {
      if (rng.bernoulli(density)) couple(i, j);
    }
  }
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (Index j = 0; j < n; ++j) {
      const double v =
          a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (v != 0.0) {
        t.push_back({i, j, v});
        row_sum += std::abs(v);
      }
    }
    t.push_back({i, i, row_sum + rng.uniform(0.5, 1.5)});
  }
  return Csr::from_triplets(n, n, std::move(t));
}

/// A dense clique of `clique` columns tied by a few entries to a sparse
/// random background of `n - clique` columns: the clique's untied columns
/// are indistinguishable, so they form one wide supernode, and the
/// background forms narrow ones.
Csr wide_and_narrow_spd(Index n, Index clique, Rng& rng) {
  std::vector<Triplet<double>> t;
  std::vector<double> row_sum(static_cast<std::size_t>(n), 0.0);
  const auto couple = [&](Index i, Index j) {
    const double v = rng.uniform(-0.5, 0.5);
    t.push_back({i, j, v});
    t.push_back({j, i, v});
    row_sum[static_cast<std::size_t>(i)] += std::abs(v);
    row_sum[static_cast<std::size_t>(j)] += std::abs(v);
  };
  for (Index i = 0; i < clique; ++i) {
    for (Index j = 0; j < i; ++j) couple(i, j);
  }
  for (Index i = clique + 1; i < n; ++i) {
    couple(i, i - 1);  // a background chain
    if (rng.bernoulli(0.3)) {
      couple(i, static_cast<Index>(rng.uniform_int(clique, i - 1)));
    }
  }
  for (Index k = 0; k < std::min<Index>(3, clique) && clique < n; ++k) {
    couple(k, static_cast<Index>(rng.uniform_int(clique, n - 1)));
  }
  for (Index i = 0; i < n; ++i) {
    t.push_back({i, i, row_sum[static_cast<std::size_t>(i)] +
                           rng.uniform(0.5, 1.5)});
  }
  return Csr::from_triplets(n, n, std::move(t));
}

DenseMatrix to_dense(const Csr& a) {
  DenseMatrix d(static_cast<std::size_t>(a.rows()),
                static_cast<std::size_t>(a.cols()));
  for (Index r = 0; r < a.rows(); ++r) {
    const auto [b, e] = a.row_range(r);
    for (Index k = b; k < e; ++k) {
      d(static_cast<std::size_t>(r),
        static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])) =
          a.values()[static_cast<std::size_t>(k)];
    }
  }
  return d;
}

Index widest_supernode(const SymbolicPlan& plan) {
  Index widest = 0;
  for (const auto& sn : plan.supernodes()) widest = std::max(widest, sn.width);
  return widest;
}

TEST(SupernodalLdlt, MatchesDenseSolveWithWideAndNarrowSupernodes) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const Index n = 200;
    const Csr a = wide_and_narrow_spd(n, 70, rng);
    const auto plan =
        std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a));
    // Wide panels (several dense blocks of kPanelBlock columns) and narrow
    // ones in the same factor.
    EXPECT_GE(widest_supernode(*plan), 33) << "seed " << seed;
    Index narrow = 0;
    for (const auto& sn : plan->supernodes()) narrow += sn.width == 1 ? 1 : 0;
    EXPECT_GT(narrow, 0) << "seed " << seed;
    expect_fundamental_supernodes(*plan);

    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    SparseLdlt ldlt;
    ldlt.factorize(a, plan);
    EXPECT_GT(ldlt.min_pivot(), 0.0);
    const std::vector<double> x = ldlt.solve(b);
    const std::vector<double> ref = to_dense(a).solve_spd(b);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], ref[i], 1e-10) << "seed " << seed << " row " << i;
    }
  }
}

/// A = L D Lᵀ with L the all-ones unit lower triangle and integer pivots:
/// a dense pattern (one supernode, AMD keeps the natural order) whose
/// factorization is exact in floating point, so pivot k is exactly d[k].
Csr exact_dense(const std::vector<double>& d) {
  const auto n = static_cast<Index>(d.size());
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      double v = 0.0;
      for (Index k = 0; k <= std::min(i, j); ++k) {
        v += d[static_cast<std::size_t>(k)];
      }
      t.push_back({i, j, v});
    }
  }
  return Csr::from_triplets(n, n, std::move(t));
}

std::vector<double> integer_pivots(std::size_t n, std::size_t at,
                                   double value) {
  std::vector<double> d(n);
  for (std::size_t k = 0; k < n; ++k) d[k] = 1.0 + static_cast<double>(k % 3);
  d[at] = value;
  return d;
}

TEST(SupernodalLdlt, ZeroPivotInsideWideSupernodeThrows) {
  // Pivot 45 of a 70-wide panel: in the second column block.
  const Csr a = exact_dense(integer_pivots(70, 45, 0.0));
  const auto plan =
      std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a));
  ASSERT_EQ(plan->supernodes().size(), 1u);
  for (Index i = 0; i < 70; ++i) {
    ASSERT_EQ(plan->perm()[static_cast<std::size_t>(i)], i);
  }
  SparseLdlt ldlt;
  EXPECT_THROW(ldlt.factorize(a, plan), ConvergenceFailure);

  SparseLdlt precond;
  EXPECT_GT(precond.factorize_with_shift(a, plan), 0.0);
}

TEST(SupernodalLdlt, NegativePivotInsideWideSupernodeShowsInMinPivot) {
  const Csr a = exact_dense(integer_pivots(70, 45, -2.0));
  SparseLdlt ldlt;
  ldlt.factorize(a);
  EXPECT_EQ(ldlt.min_pivot(), -2.0);

  SparseLdlt precond;
  EXPECT_GT(precond.factorize_with_shift(
                a, std::make_shared<const SymbolicPlan>(
                       SymbolicPlan::analyze(a))),
            0.0);
  std::vector<double> r(70, 1.0);
  std::vector<double> z(70, 0.0);
  precond.solve(r, z);
  for (const double v : z) EXPECT_TRUE(std::isfinite(v));
}

/// Flat-start WLS gain of `network` (the structure of a Gauss–Newton gain;
/// the values do not matter here). A subsystem's local network carries no
/// slack unless it owns the global one; bus 0 then becomes the reference.
Csr flat_gain(grid::Network network) {
  bool has_slack = false;
  for (const auto& bus : network.buses()) {
    has_slack = has_slack || bus.type == grid::BusType::kSlack;
  }
  if (!has_slack) network.set_bus_type(0, grid::BusType::kSlack, 1.0);
  const grid::GridState flat(network.num_buses());
  Rng rng(11);
  const grid::MeasurementSet set =
      grid::MeasurementGenerator(network, {}).generate(flat, rng);
  const grid::MeasurementModel model(
      network, grid::StateIndex(network.num_buses(), network.slack_bus()));
  return normal_matrix(model.jacobian(set, flat), set.weights());
}

TEST(SupernodalLdlt, FactorNnzIsTheStructuralCountOnGains) {
  std::vector<Csr> gains;
  gains.push_back(flat_gain(io::ieee14().network));
  gains.push_back(flat_gain(io::ieee118_dse().kase.network));
  gains.push_back(flat_gain(io::wecc37().kase.network));
  {
    const io::GeneratedCase gc = io::interconnection10k();
    const decomp::Decomposition d =
        decomp::decompose(gc.kase.network, gc.subsystem_of_bus);
    gains.push_back(
        flat_gain(decomp::extract_local(gc.kase.network, d, 0).network));
  }
  for (const Csr& g : gains) {
    const auto plan =
        std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(g));
    expect_fundamental_supernodes(*plan);
    SparseLdlt ldlt;
    ldlt.factorize(g, plan);
    EXPECT_EQ(ldlt.factor_nnz(), plan->factor_nnz());
  }
}

TEST(SupernodalLdlt, FourThreadsGiveIdenticalBits) {
  Rng rng(77);
  const Index n = 400;
  const Csr a = wide_and_narrow_spd(n, 120, rng);
  const auto plan =
      std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a));
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  SparseLdlt reference;
  reference.factorize(a, plan);
  const std::vector<double> expect = reference.solve(b);

  std::vector<std::vector<double>> got(4);
  std::vector<double> pivots(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      SparseLdlt ldlt;
      for (int repeat = 0; repeat < 3; ++repeat) ldlt.factorize(a, plan);
      got[t].assign(static_cast<std::size_t>(n), 0.0);
      ldlt.solve(b, got[t]);
      pivots[t] = ldlt.min_pivot();
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(std::memcmp(got[t].data(), expect.data(),
                          expect.size() * sizeof(double)),
              0)
        << "thread " << t;
    EXPECT_EQ(pivots[t], reference.min_pivot());
  }
}

// Seeded fuzz: random sparse SPD patterns of every shape the partition can
// meet (isolated columns, chains, overlapping cliques, long-range
// couplings, one clique wider than a panel block). Each case checks the
// supernodes against the definition and the solve against the dense
// reference, also after a refactorization with new values.
TEST(LdltFuzz, RandomSparseSpdPatterns) {
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<Index>(rng.uniform_int(1, 110));
    Csr a;
    if (seed % 2 == 0) {
      const auto cliques = static_cast<Index>(rng.uniform_int(0, 4));
      const auto clique_size = static_cast<Index>(rng.uniform_int(2, 40));
      const double density = rng.uniform(0.0, 0.08);
      a = clique_spd(n, cliques, clique_size, density, rng);
    } else {
      a = wide_and_narrow_spd(n, static_cast<Index>(rng.uniform_int(1, n)),
                              rng);
    }
    const auto plan =
        std::make_shared<const SymbolicPlan>(SymbolicPlan::analyze(a));
    expect_fundamental_supernodes(*plan);

    SparseLdlt ldlt;
    for (int round = 0; round < 2; ++round) {
      // Same pattern, new values: A + c·I stays SPD.
      const Csr m = round == 0 ? a : add_diagonal(a, rng.uniform(0.1, 3.0));
      ldlt.factorize(m, plan);
      std::vector<double> b(static_cast<std::size_t>(n));
      for (auto& v : b) v = rng.uniform(-1.0, 1.0);
      const std::vector<double> x = ldlt.solve(b);
      const std::vector<double> ref = to_dense(m).solve_spd(b);
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(x[i], ref[i], 1e-10)
            << "seed " << seed << " round " << round << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace gridse::sparse
