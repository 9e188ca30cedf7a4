#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/parallel.hpp"
#include "graph/partitioner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gridse::graph::detail {
namespace {

/// FM refinement passes per level.
constexpr int kRefinementPasses = 8;

/// Count of vertices per part; moves that would empty a part are forbidden.
std::vector<int> part_sizes(std::span<const PartId> assignment, PartId k) {
  std::vector<int> sizes(static_cast<std::size_t>(k), 0);
  for (const PartId p : assignment) {
    ++sizes[static_cast<std::size_t>(p)];
  }
  return sizes;
}

/// A candidate vertex move proposed from a snapshot of the assignment.
/// Candidates are re-validated against the live state before applying.
struct Move {
  double gain = 0.0;
  VertexId v = -1;
  PartId to = -1;
  bool balances = false;
};

/// Strict total order: best gain first, then lower vertex id. Vertex ids
/// are unique, so the sorted sequence is independent of the (shard-count
/// dependent) order proposals were generated in.
bool move_order(const Move& a, const Move& b) {
  if (a.gain != b.gain) return a.gain > b.gain;
  return a.v < b.v;
}

/// Mutable refinement state shared by the cut and coupling passes.
struct RefineState {
  std::vector<PartId> assignment;
  std::vector<double> part_weights;
  std::vector<int> sizes;
  double limit = 0.0;
};

/// True when moving `vw` from `from` to `to` keeps the move admissible:
/// the target stays within the balance limit, or the move strictly
/// shrinks an overweight source (rebalancing move).
bool admissible(const RefineState& s, PartId from, PartId to, double vw) {
  const double new_to = s.part_weights[static_cast<std::size_t>(to)] + vw;
  const double old_from = s.part_weights[static_cast<std::size_t>(from)];
  return new_to <= s.limit || (old_from > s.limit && new_to < old_from);
}

bool improves_balance(const RefineState& s, PartId from, PartId to, double vw) {
  const double new_to = s.part_weights[static_cast<std::size_t>(to)] + vw;
  const double old_from = s.part_weights[static_cast<std::size_t>(from)];
  return std::max(new_to, old_from - vw) <
         std::max(s.part_weights[static_cast<std::size_t>(to)], old_from);
}

void apply_move(RefineState& s, const WeightedGraph& g, VertexId v, PartId to) {
  const auto vs = static_cast<std::size_t>(v);
  const PartId from = s.assignment[vs];
  const double vw = g.vertex_weight(v);
  s.part_weights[static_cast<std::size_t>(from)] -= vw;
  s.part_weights[static_cast<std::size_t>(to)] += vw;
  --s.sizes[static_cast<std::size_t>(from)];
  ++s.sizes[static_cast<std::size_t>(to)];
  s.assignment[vs] = to;
}

/// One edge-cut refinement pass: propose the best move per vertex in
/// parallel from a snapshot, then apply sequentially in (gain, vertex)
/// order, re-deriving each gain against the live assignment. Returns the
/// number of applied moves.
int cut_pass(const WeightedGraph& g, const PartitionOptions& options,
             const Executor& exec, RefineState& s) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const PartId k = options.k;
  std::vector<std::vector<Move>> proposals(
      static_cast<std::size_t>(exec.shards()));
  exec.for_ranges(n, [&](std::size_t begin, std::size_t end, int shard) {
    std::vector<double> ext(static_cast<std::size_t>(k));
    auto& out = proposals[static_cast<std::size_t>(shard)];
    for (std::size_t vs = begin; vs < end; ++vs) {
      const auto v = static_cast<VertexId>(vs);
      const PartId from = s.assignment[vs];
      std::fill(ext.begin(), ext.end(), 0.0);
      bool boundary = false;
      for (const auto& [nbr, w] : g.neighbors(v)) {
        const PartId np = s.assignment[static_cast<std::size_t>(nbr)];
        ext[static_cast<std::size_t>(np)] += w;
        boundary = boundary || np != from;
      }
      if (!boundary) continue;
      const double vw = g.vertex_weight(v);
      const double internal = ext[static_cast<std::size_t>(from)];
      Move best;
      for (PartId to = 0; to < k; ++to) {
        if (to == from) continue;
        if (!admissible(s, from, to, vw)) continue;
        const double gain = ext[static_cast<std::size_t>(to)] - internal;
        const bool balances = improves_balance(s, from, to, vw);
        if (best.to < 0 || gain > best.gain ||
            (gain == best.gain && balances && !best.balances)) {
          best = Move{gain, v, to, balances};
        }
      }
      if (best.to >= 0 && (best.gain > 0.0 || best.balances)) {
        out.push_back(best);
      }
    }
  });
  std::vector<Move> moves;
  for (auto& shard_moves : proposals) {
    moves.insert(moves.end(), shard_moves.begin(), shard_moves.end());
  }
  std::sort(moves.begin(), moves.end(), move_order);

  int applied = 0;
  std::vector<double> ext(static_cast<std::size_t>(k));
  for (const Move& m : moves) {
    const auto vs = static_cast<std::size_t>(m.v);
    const PartId from = s.assignment[vs];
    if (from == m.to) continue;
    if (s.sizes[static_cast<std::size_t>(from)] <= 1) continue;  // never empty
    const double vw = g.vertex_weight(m.v);
    if (!admissible(s, from, m.to, vw)) continue;
    std::fill(ext.begin(), ext.end(), 0.0);
    for (const auto& [nbr, w] : g.neighbors(m.v)) {
      ext[static_cast<std::size_t>(s.assignment[static_cast<std::size_t>(
          nbr)])] += w;
    }
    const double gain = ext[static_cast<std::size_t>(m.to)] -
                        ext[static_cast<std::size_t>(from)];
    // Accept strictly-positive-gain moves, and zero-gain moves that improve
    // balance (classic FM tie-break), re-checked against the live state.
    if (gain > 0.0 || (gain == 0.0 && improves_balance(s, from, m.to, vw))) {
      apply_move(s, g, m.v, m.to);
      ++applied;
    }
  }
  return applied;
}

/// Coupling state for the convergence-aware pass: per-part cut-incident
/// and total-incident edge weight, as in evaluate_partition.
struct Coupling {
  std::vector<double> ext;
  std::vector<double> tot;
};

Coupling compute_coupling(const WeightedGraph& g,
                          std::span<const PartId> assignment, PartId k) {
  Coupling c;
  c.ext.assign(static_cast<std::size_t>(k), 0.0);
  c.tot.assign(static_cast<std::size_t>(k), 0.0);
  for (const Edge& e : g.edges()) {
    const PartId pu = assignment[static_cast<std::size_t>(e.u)];
    const PartId pv = assignment[static_cast<std::size_t>(e.v)];
    c.tot[static_cast<std::size_t>(pu)] += e.weight;
    c.tot[static_cast<std::size_t>(pv)] += e.weight;
    if (pu != pv) {
      c.ext[static_cast<std::size_t>(pu)] += e.weight;
      c.ext[static_cast<std::size_t>(pv)] += e.weight;
    }
  }
  return c;
}

double ratio_sq(const Coupling& c, PartId p) {
  const double tot = c.tot[static_cast<std::size_t>(p)];
  if (tot <= 0.0) return 0.0;
  const double r = c.ext[static_cast<std::size_t>(p)] / tot;
  return r * r;
}

/// Change in the smooth coupling surrogate phi = sum_p (ext_p/tot_p)^2
/// when v moves from A to B. w_a / w_b are v's edge weight into A / B and
/// wv its total incident weight; only A and B change:
///   ext_A += 2*w_a - wv   tot_A -= wv
///   ext_B += wv - 2*w_b   tot_B += wv
double coupling_delta(const Coupling& c, PartId a, PartId b, double w_a,
                      double w_b, double wv) {
  const auto sq = [](double ext, double tot) {
    if (tot <= 0.0) return 0.0;
    const double r = ext / tot;
    return r * r;
  };
  const double before = ratio_sq(c, a) + ratio_sq(c, b);
  const double after =
      sq(c.ext[static_cast<std::size_t>(a)] + 2.0 * w_a - wv,
         c.tot[static_cast<std::size_t>(a)] - wv) +
      sq(c.ext[static_cast<std::size_t>(b)] + wv - 2.0 * w_b,
         c.tot[static_cast<std::size_t>(b)] + wv);
  return after - before;
}

/// One convergence-aware pass: propose boundary moves that reduce the
/// coupling surrogate (possibly increasing edge cut), apply sequentially
/// with live re-validation. Returns the number of applied moves.
int coupling_pass(const WeightedGraph& g, const PartitionOptions& options,
                  const Executor& exec, RefineState& s) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const PartId k = options.k;
  const Coupling snapshot = compute_coupling(g, s.assignment, k);
  std::vector<std::vector<Move>> proposals(
      static_cast<std::size_t>(exec.shards()));
  exec.for_ranges(n, [&](std::size_t begin, std::size_t end, int shard) {
    std::vector<double> ext(static_cast<std::size_t>(k));
    auto& out = proposals[static_cast<std::size_t>(shard)];
    for (std::size_t vs = begin; vs < end; ++vs) {
      const auto v = static_cast<VertexId>(vs);
      const PartId from = s.assignment[vs];
      std::fill(ext.begin(), ext.end(), 0.0);
      double wv = 0.0;
      bool boundary = false;
      for (const auto& [nbr, w] : g.neighbors(v)) {
        const PartId np = s.assignment[static_cast<std::size_t>(nbr)];
        ext[static_cast<std::size_t>(np)] += w;
        wv += w;
        boundary = boundary || np != from;
      }
      if (!boundary) continue;
      const double vw = g.vertex_weight(v);
      Move best;
      for (PartId to = 0; to < k; ++to) {
        if (to == from) continue;
        if (ext[static_cast<std::size_t>(to)] <= 0.0) continue;
        if (!admissible(s, from, to, vw)) continue;
        const double delta = coupling_delta(
            snapshot, from, to, ext[static_cast<std::size_t>(from)],
            ext[static_cast<std::size_t>(to)], wv);
        if (best.to < 0 || -delta > best.gain) {
          best = Move{-delta, v, to, false};
        }
      }
      if (best.to >= 0 && best.gain > 1e-12) out.push_back(best);
    }
  });
  std::vector<Move> moves;
  for (auto& shard_moves : proposals) {
    moves.insert(moves.end(), shard_moves.begin(), shard_moves.end());
  }
  std::sort(moves.begin(), moves.end(), move_order);

  Coupling live = snapshot;
  int applied = 0;
  std::vector<double> ext(static_cast<std::size_t>(k));
  for (const Move& m : moves) {
    const auto vs = static_cast<std::size_t>(m.v);
    const PartId from = s.assignment[vs];
    if (from == m.to) continue;
    if (s.sizes[static_cast<std::size_t>(from)] <= 1) continue;
    const double vw = g.vertex_weight(m.v);
    if (!admissible(s, from, m.to, vw)) continue;
    std::fill(ext.begin(), ext.end(), 0.0);
    double wv = 0.0;
    for (const auto& [nbr, w] : g.neighbors(m.v)) {
      ext[static_cast<std::size_t>(s.assignment[static_cast<std::size_t>(
          nbr)])] += w;
      wv += w;
    }
    const double w_a = ext[static_cast<std::size_t>(from)];
    const double w_b = ext[static_cast<std::size_t>(m.to)];
    const double delta = coupling_delta(live, from, m.to, w_a, w_b, wv);
    if (delta >= -1e-12) continue;
    live.ext[static_cast<std::size_t>(from)] += 2.0 * w_a - wv;
    live.tot[static_cast<std::size_t>(from)] -= wv;
    live.ext[static_cast<std::size_t>(m.to)] += wv - 2.0 * w_b;
    live.tot[static_cast<std::size_t>(m.to)] += wv;
    apply_move(s, g, m.v, m.to);
    ++applied;
  }
  return applied;
}

}  // namespace

Partition fm_refine_with(const WeightedGraph& g,
                         std::vector<PartId> assignment,
                         const PartitionOptions& options,
                         const Executor& exec) {
  const VertexId n = g.num_vertices();
  const PartId k = options.k;
  GRIDSE_CHECK(static_cast<VertexId>(assignment.size()) == n);

  RefineState s;
  s.assignment = std::move(assignment);
  s.part_weights.assign(static_cast<std::size_t>(k), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    s.part_weights[static_cast<std::size_t>(
        s.assignment[static_cast<std::size_t>(v)])] += g.vertex_weight(v);
  }
  s.sizes = part_sizes(s.assignment, k);
  s.limit = options.imbalance_tolerance * g.total_vertex_weight() /
            static_cast<double>(k);

  for (int pass = 0; pass < kRefinementPasses; ++pass) {
    if (cut_pass(g, options, exec, s) == 0) break;
  }
  if (options.objective == PartitionObjective::kConvergenceAware) {
    for (int pass = 0; pass < kRefinementPasses; ++pass) {
      if (coupling_pass(g, options, exec, s) == 0) break;
    }
  }
  return evaluate_partition(g, std::move(s.assignment), k);
}

Partition fm_refine(const WeightedGraph& g, std::vector<PartId> assignment,
                    const PartitionOptions& options) {
  const Executor exec(options.pool, options.threads, assignment.size());
  return fm_refine_with(g, std::move(assignment), options, exec);
}

Partition greedy_partition(const WeightedGraph& g,
                           const PartitionOptions& options) {
  const VertexId n = g.num_vertices();
  const PartId k = options.k;
  GRIDSE_CHECK(k <= n);
  Rng rng(options.seed ^ 0x9e37u);

  // Seed each part with a vertex far from previous seeds (BFS eccentricity
  // heuristic), then grow regions: repeatedly give the lightest part its
  // most-connected unassigned boundary vertex.
  std::vector<PartId> assignment(static_cast<std::size_t>(n), -1);
  std::vector<double> part_weights(static_cast<std::size_t>(k), 0.0);

  std::vector<VertexId> seeds;
  seeds.push_back(static_cast<VertexId>(rng.uniform_int(0, n - 1)));
  while (static_cast<PartId>(seeds.size()) < k) {
    // BFS multi-source distances from current seeds
    std::vector<int> dist(static_cast<std::size_t>(n), -1);
    std::vector<VertexId> queue(seeds.begin(), seeds.end());
    for (const VertexId s : seeds) dist[static_cast<std::size_t>(s)] = 0;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const VertexId u = queue[qi];
      for (const auto& [v, w] : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(v)] < 0) {
          dist[static_cast<std::size_t>(v)] =
              dist[static_cast<std::size_t>(u)] + 1;
          queue.push_back(v);
        }
      }
    }
    VertexId far = 0;
    int far_d = -1;
    for (VertexId v = 0; v < n; ++v) {
      if (dist[static_cast<std::size_t>(v)] > far_d &&
          std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
        far_d = dist[static_cast<std::size_t>(v)];
        far = v;
      }
    }
    seeds.push_back(far);
  }
  for (PartId p = 0; p < k; ++p) {
    assignment[static_cast<std::size_t>(seeds[static_cast<std::size_t>(p)])] = p;
    part_weights[static_cast<std::size_t>(p)] +=
        g.vertex_weight(seeds[static_cast<std::size_t>(p)]);
  }

  VertexId assigned = k;
  while (assigned < n) {
    // lightest part picks next
    PartId p = 0;
    for (PartId q = 1; q < k; ++q) {
      if (part_weights[static_cast<std::size_t>(q)] <
          part_weights[static_cast<std::size_t>(p)]) {
        p = q;
      }
    }
    // best unassigned vertex by connection weight to part p; fall back to
    // any unassigned vertex (disconnected graphs / exhausted frontier)
    VertexId best = -1;
    double best_conn = -1.0;
    for (VertexId v = 0; v < n; ++v) {
      if (assignment[static_cast<std::size_t>(v)] >= 0) continue;
      double conn = 0.0;
      for (const auto& [nbr, w] : g.neighbors(v)) {
        if (assignment[static_cast<std::size_t>(nbr)] == p) conn += w;
      }
      if (conn > best_conn) {
        best_conn = conn;
        best = v;
      }
    }
    if (best_conn <= 0.0) {
      // frontier empty for this part: give it the heaviest unassigned vertex
      // is counterproductive; just take any unassigned vertex
      for (VertexId v = 0; v < n; ++v) {
        if (assignment[static_cast<std::size_t>(v)] < 0) {
          best = v;
          break;
        }
      }
    }
    assignment[static_cast<std::size_t>(best)] = p;
    part_weights[static_cast<std::size_t>(p)] += g.vertex_weight(best);
    ++assigned;
  }
  return fm_refine(g, std::move(assignment), options);
}

}  // namespace gridse::graph::detail
