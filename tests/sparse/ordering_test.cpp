#include "sparse/ordering.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "io/synthetic.hpp"
#include "sparse/symbolic_plan.hpp"
#include "util/rng.hpp"

namespace gridse::sparse {
namespace {

bool is_permutation_of(const std::vector<Index>& perm, Index n) {
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  const std::set<Index> seen(perm.begin(), perm.end());
  return seen.size() == perm.size() &&
         (n == 0 || (*seen.begin() == 0 && *seen.rbegin() == n - 1));
}

Csr from_edges(Index n, const std::vector<std::pair<Index, Index>>& edges) {
  std::vector<Triplet<double>> t;
  for (Index i = 0; i < n; ++i) t.push_back({i, i, 4.0});
  for (const auto& [i, j] : edges) {
    t.push_back({i, j, -1.0});
    t.push_back({j, i, -1.0});
  }
  return Csr::from_triplets(n, n, std::move(t));
}

Csr random_graph(Index n, int edges, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Index, Index>> e;
  for (int k = 0; k < edges; ++k) {
    const auto i = static_cast<Index>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<Index>(rng.uniform_int(0, n - 1));
    if (i != j) e.emplace_back(i, j);
  }
  return from_edges(n, e);
}

/// k×k five-point grid, nodes numbered row by row.
Csr grid_2d(Index k) {
  std::vector<std::pair<Index, Index>> e;
  for (Index r = 0; r < k; ++r) {
    for (Index c = 0; c < k; ++c) {
      if (c + 1 < k) e.emplace_back(r * k + c, r * k + c + 1);
      if (r + 1 < k) e.emplace_back(r * k + c, (r + 1) * k + c);
    }
  }
  return from_edges(k * k, e);
}

/// The DC power flow's B′ over the non-slack buses (susceptances 1/x).
Csr bprime(const grid::Network& net) {
  const grid::BusIndex slack = net.slack_bus();
  const auto reduced = [slack](grid::BusIndex b) {
    return b == slack ? -1 : (b < slack ? b : b - 1);
  };
  std::vector<Triplet<double>> t;
  for (std::size_t bi = 0; bi < net.num_branches(); ++bi) {
    const grid::Branch& br = net.branch(bi);
    const double b = 1.0 / br.x;
    const Index f = reduced(br.from);
    const Index to = reduced(br.to);
    if (f >= 0) t.push_back({f, f, b});
    if (to >= 0) t.push_back({to, to, b});
    if (f >= 0 && to >= 0) {
      t.push_back({f, to, -b});
      t.push_back({to, f, -b});
    }
  }
  const Index dim = net.num_buses() - 1;
  return Csr::from_triplets(dim, dim, std::move(t));
}

std::size_t amd_fill(const Csr& a) {
  return SymbolicPlan::analyze(a).factor_nnz();
}

/// Strict-lower factor entries of `a` eliminated in natural order, by dense
/// symbolic elimination (small matrices only).
std::size_t natural_order_fill(const Csr& a) {
  const auto n = static_cast<std::size_t>(a.rows());
  std::vector<std::vector<bool>> nz(n, std::vector<bool>(n, false));
  const std::vector<double> dense = a.to_dense();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (dense[i * n + j] != 0.0) nz[i][j] = nz[j][i] = true;
    }
  }
  std::size_t fill = 0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!nz[i][k]) continue;
      ++fill;
      for (std::size_t j = k + 1; j < n; ++j) {
        if (nz[j][k]) nz[i][j] = true;
      }
    }
  }
  return fill;
}

TEST(Amd, ProducesValidPermutation) {
  const Csr a = random_graph(25, 60, 3);
  EXPECT_TRUE(is_permutation_of(approximate_minimum_degree(a), 25));

  EXPECT_TRUE(approximate_minimum_degree(Csr::from_triplets(0, 0, {})).empty());
  EXPECT_EQ(approximate_minimum_degree(Csr::from_triplets(1, 1, {{0, 0, 2.0}})),
            (std::vector<Index>{0}));
  // No diagonal and no edges at all: every node is its own component.
  EXPECT_EQ(approximate_minimum_degree(Csr::from_triplets(3, 3, {})),
            (std::vector<Index>{0, 1, 2}));
}

TEST(Amd, HandlesDisconnectedComponents) {
  // Two disjoint triangles and an isolated node: each triangle is a clique,
  // so any valid elimination of it fills nothing beyond its three edges.
  const Csr a = from_edges(7, {{0, 1}, {1, 2}, {0, 2}, {4, 5}, {5, 6}, {4, 6}});
  EXPECT_TRUE(is_permutation_of(approximate_minimum_degree(a), 7));
  EXPECT_EQ(amd_fill(a), 6u);
}

TEST(Amd, IsDeterministicAcrossCalls) {
  // SymbolicPlan fingerprints assume the ordering is a pure function of the
  // pattern: repeated calls must be bit-identical, including on graphs full
  // of equal-degree ties (ties break on node index per the contract).
  const Csr a = random_graph(40, 80, 11);
  const auto first = approximate_minimum_degree(a);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(approximate_minimum_degree(a), first);
  }

  // A 3×3 grid is all ties: the four corners (degree 2) go first in index
  // order, then midpoint 1; the next pivot, 3, leaves the centre and the
  // remaining midpoints with no neighbour outside its element, so they are
  // mass-eliminated with it and numbered in index order.
  EXPECT_EQ(approximate_minimum_degree(grid_2d(3)),
            (std::vector<Index>{0, 2, 6, 8, 1, 3, 4, 5, 7}));
}

TEST(Amd, NoFillOnShuffledPath) {
  // A path with scrambled labels still factors with no fill: AMD peels it
  // from the ends whatever the numbering, where the natural order fills.
  const Index n = 50;
  std::vector<Index> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), 0);
  Rng rng(7);
  rng.shuffle(label);
  std::vector<std::pair<Index, Index>> e;
  for (Index i = 0; i + 1 < n; ++i) {
    e.emplace_back(label[static_cast<std::size_t>(i)],
                   label[static_cast<std::size_t>(i) + 1]);
  }
  const Csr path = from_edges(n, e);
  EXPECT_EQ(amd_fill(path), static_cast<std::size_t>(n - 1));
  EXPECT_GT(natural_order_fill(path), static_cast<std::size_t>(n - 1));
}

TEST(Amd, Ieee118BprimeFillBelowRcm) {
  // Reverse Cuthill–McKee, the ordering AMD replaced, left 438 factor
  // entries on this B′.
  const Csr b = bprime(io::ieee118_dse().kase.network);
  ASSERT_EQ(b.rows(), 117);
  EXPECT_TRUE(is_permutation_of(approximate_minimum_degree(b), b.rows()));
  EXPECT_LT(amd_fill(b), 438u);
}

TEST(Amd, GridFillNoWorseThanRcm) {
  // RCM factor entries on the 10×10 and 30×30 grids: 705 and 18415.
  EXPECT_LE(amd_fill(grid_2d(10)), 705u);
  EXPECT_LE(amd_fill(grid_2d(30)), 18415u);
}

TEST(Amd, OneSidedPatternIsSymmetrized) {
  // Only the upper triangle stored: the ordering sees the same graph as the
  // full symmetric pattern.
  const Csr full = random_graph(30, 70, 5);
  std::vector<Triplet<double>> upper;
  for (Index r = 0; r < full.rows(); ++r) {
    const auto [b, e] = full.row_range(r);
    for (Index k = b; k < e; ++k) {
      const Index c = full.col_idx()[static_cast<std::size_t>(k)];
      if (c >= r) upper.push_back({r, c, 1.0});
    }
  }
  EXPECT_EQ(approximate_minimum_degree(Csr::from_triplets(30, 30, upper)),
            approximate_minimum_degree(full));
}

TEST(Permutation, InvertRoundTrips) {
  const std::vector<Index> perm{2, 0, 3, 1};
  const auto inv = invert_permutation(perm);
  EXPECT_EQ(inv, (std::vector<Index>{1, 3, 0, 2}));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[i])], static_cast<Index>(i));
  }
}

}  // namespace
}  // namespace gridse::sparse
