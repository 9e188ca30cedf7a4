#include "sparse/ordering.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "util/error.hpp"

namespace gridse::sparse {
namespace {

constexpr std::size_t u(Index i) { return static_cast<std::size_t>(i); }

/// Binary min-heap of variables keyed on (degree, node index), the key
/// packed into one integer so that comparing two entries is one compare.
/// Each node's slot is tracked, so a degree change sifts it in place and
/// the heap never holds a stale entry.
class DegreeHeap {
 public:
  explicit DegreeHeap(Index n) : slot_(u(n), -1) {}

  /// Insert `i` at `degree`, or move it there if present.
  void set(Index i, Index degree) {
    const std::uint64_t key = (static_cast<std::uint64_t>(degree) << 32) |
                              static_cast<std::uint32_t>(i);
    Index s = slot_[u(i)];
    if (s < 0) {
      s = static_cast<Index>(heap_.size());
      heap_.push_back(key);
      sift_up(s, key);
    } else if (key < heap_[u(s)]) {
      sift_up(s, key);
    } else {
      sift_down(s, key);
    }
  }

  void erase(Index i) {
    const Index s = slot_[u(i)];
    if (s < 0) return;
    slot_[u(i)] = -1;
    const std::uint64_t last = heap_.back();
    heap_.pop_back();
    if (s == static_cast<Index>(heap_.size())) return;
    if (last < heap_[u(s)]) {
      sift_up(s, last);
    } else {
      sift_down(s, last);
    }
  }

  /// Remove and return the node of least (degree, index).
  Index pop() {
    GRIDSE_CHECK(!heap_.empty());
    const Index top = node(heap_.front());
    erase(top);
    return top;
  }

 private:
  static Index node(std::uint64_t key) {
    return static_cast<Index>(key & 0xffffffffU);
  }
  void place(Index s, std::uint64_t key) {
    heap_[u(s)] = key;
    slot_[u(node(key))] = s;
  }
  /// Put `key` at slot `s`, moving it towards the root past larger parents.
  void sift_up(Index s, std::uint64_t key) {
    while (s > 0) {
      const Index parent = (s - 1) / 2;
      if (heap_[u(parent)] <= key) break;
      place(s, heap_[u(parent)]);
      s = parent;
    }
    place(s, key);
  }
  /// Put `key` at slot `s`, moving it towards the leaves past smaller
  /// children.
  void sift_down(Index s, std::uint64_t key) {
    const auto size = static_cast<Index>(heap_.size());
    for (;;) {
      Index child = 2 * s + 1;
      if (child >= size) break;
      if (child + 1 < size && heap_[u(child + 1)] < heap_[u(child)]) ++child;
      if (key <= heap_[u(child)]) break;
      place(s, heap_[u(child)]);
      s = child;
    }
    place(s, key);
  }

  std::vector<std::uint64_t> heap_;
  std::vector<Index> slot_;
};

/// One AMD run over the quotient graph. Every node is, at any time, in one
/// of four states: a principal variable (uneliminated; stands for nv[i]
/// original nodes), merged (folded into a supervariable or mass-eliminated
/// with a pivot; rep[i] names where it went), a live element (an eliminated
/// pivot p whose variable list L_p is the clique its elimination created),
/// or an absorbed element (covered by a newer element and forgotten).
///
/// All lists live in one workspace `iw_`: node i's list is
/// iw_[pe, pe + len) of its Node. A variable's list holds its `elen`
/// adjacent elements (E_i) first, then its adjacent variables (A_i); an
/// element's list is L_e. Pruning never grows a variable's list and each
/// new element is appended at the end. Dead lists are not reclaimed: the
/// elements' lists add up to at most nnz(L), so the workspace stays within
/// nnz(A + Aᵀ) + nnz(L) entries.
class Amd {
 public:
  explicit Amd(const Csr& a)
      : n_(a.rows()),
        node_(u(n_)),
        rep_(u(n_)),
        heap_(n_),
        mark_(u(n_), 0) {
    // Off-diagonal pattern of A + Aᵀ, duplicates dropped, so a pattern that
    // is only stored one-sided still yields a symmetric quotient graph.
    const auto col = a.col_idx();
    std::vector<Index> start(u(n_) + 1, 0);
    for (Index i = 0; i < n_; ++i) {
      const auto [b, e] = a.row_range(i);
      for (Index k = b; k < e; ++k) {
        const Index j = col[u(k)];
        if (j == i) continue;
        ++start[u(i) + 1];
        ++start[u(j) + 1];
      }
    }
    for (Index i = 0; i < n_; ++i) start[u(i) + 1] += start[u(i)];
    iw_.resize(u(start[u(n_)]));
    for (Index i = 0; i < n_; ++i) node_[u(i)].pe = start[u(i)];
    for (Index i = 0; i < n_; ++i) {
      const auto [b, e] = a.row_range(i);
      for (Index k = b; k < e; ++k) {
        const Index j = col[u(k)];
        if (j == i) continue;
        iw_[u(node_[u(i)].pe + node_[u(i)].len++)] = j;
        iw_[u(node_[u(j)].pe + node_[u(j)].len++)] = i;
      }
    }
    for (Index i = 0; i < n_; ++i) {
      rep_[u(i)] = i;
      Node& ni = node_[u(i)];
      Index keep = 0;
      for (Index k = ni.pe; k < ni.pe + ni.len; ++k) {
        const Index j = iw_[u(k)];
        if (mark_[u(j)] == i + 1) continue;
        mark_[u(j)] = i + 1;
        iw_[u(ni.pe + keep++)] = j;
      }
      ni.len = keep;
      ni.degree = keep;
      heap_.set(i, keep);
    }
    mark_stamp_ = n_;
  }

  std::vector<Index> run() {
    while (eliminated_ < n_) {
      const Index p = select_pivot();
      pivots_.push_back(p);
      ++stamp_;
      eliminated_ += node_[u(p)].nv;
      build_element(p);
      compute_set_differences();
      update_degrees(p);
      detect_supervariables();
      finalize_element(p);
    }
    return permutation();
  }

 private:
  enum class State : std::uint8_t { kVariable, kMerged, kElement, kAbsorbed };

  std::span<Index> list(Index i) {
    return {iw_.data() + node_[u(i)].pe, u(node_[u(i)].len)};
  }
  std::span<Index> elements_of(Index i) {
    return list(i).first(u(node_[u(i)].elen));
  }
  std::span<Index> variables_of(Index i) {
    return list(i).subspan(u(node_[u(i)].elen));
  }

  /// The live variable of least (approximate degree, node index).
  Index select_pivot() { return heap_.pop(); }

  void absorb(Index e) { node_[u(e)].state = State::kAbsorbed; }

  void merge(Index i, Index into) {
    node_[u(i)].state = State::kMerged;
    node_[u(i)].nv = 0;
    rep_[u(i)] = into;
    heap_.erase(i);
  }

  /// L_p = (A_p ∪ ⋃_{e ∈ E_p} L_e) \ {p}, restricted to principal
  /// variables; every element adjacent to p is absorbed into p.
  void build_element(Index p) {
    node_[u(p)].state = State::kElement;
    lp_.clear();
    lp_weight_ = 0;
    const auto take = [this](Index i) {
      Node& ni = node_[u(i)];
      if (ni.state != State::kVariable || ni.stamp == stamp_) return;
      ni.stamp = stamp_;
      lp_.push_back(i);
      lp_weight_ += ni.nv;
    };
    for (const Index e : elements_of(p)) {
      if (node_[u(e)].state != State::kElement) continue;
      for (const Index i : list(e)) take(i);
      absorb(e);
    }
    for (const Index i : variables_of(p)) take(i);
  }

  /// w = |L_e \ L_p| (weighted) for every live element e adjacent to L_p.
  void compute_set_differences() {
    for (const Index i : lp_) {
      const Index nvi = node_[u(i)].nv;
      for (const Index e : elements_of(i)) {
        Node& ne = node_[u(e)];
        if (ne.state != State::kElement) continue;
        if (ne.stamp != stamp_) {
          ne.stamp = stamp_;
          ne.w = ne.degree;
        }
        ne.w -= nvi;
      }
    }
  }

  /// Prune each i ∈ L_p's list, bound its external degree by
  /// |A_i \ L_p| + Σ_e |L_e \ L_p|, absorb the elements L_p covers
  /// (aggressive absorption), mass-eliminate a variable with nothing left
  /// outside L_p, and add p to the survivors' element lists. Survivors are
  /// hashed for supervariable detection.
  void update_degrees(Index p) {
    candidates_.clear();
    for (const Index i : lp_) {
      Index external = 0;
      std::uint64_t hash = 0;
      const Index b = node_[u(i)].pe;
      Index out = b;
      for (const Index e : elements_of(i)) {
        const Node& ne = node_[u(e)];
        if (ne.state != State::kElement) continue;
        if (ne.w > 0) {
          external += ne.w;
          hash += static_cast<std::uint64_t>(e);
          iw_[u(out++)] = e;
        } else {
          absorb(e);
        }
      }
      const Index kept_elements = out - b;
      for (const Index j : variables_of(i)) {
        const Node& nj = node_[u(j)];
        if (nj.state != State::kVariable || nj.stamp == stamp_) continue;
        external += nj.nv;
        hash += static_cast<std::uint64_t>(j);
        iw_[u(out++)] = j;
      }
      Node& ni = node_[u(i)];
      if (external == 0) {
        // i's whole neighbourhood lies inside L_p: eliminate it with p.
        eliminated_ += ni.nv;
        lp_weight_ -= ni.nv;
        merge(i, p);
        continue;
      }
      // i reached L_p through p itself or through an element p absorbed, so
      // pruning freed at least one slot: p goes in without growing the list
      // (it swaps places with the first variable to stay among the
      // elements).
      GRIDSE_CHECK(out < b + ni.len);
      iw_[u(out)] = iw_[u(b + kept_elements)];
      iw_[u(b + kept_elements)] = p;
      ni.elen = kept_elements + 1;
      ni.len = out - b + 1;
      ni.degree = std::min(ni.degree, external);
      hash += static_cast<std::uint64_t>(p);
      candidates_.emplace_back(hash, i);
    }
  }

  /// Variables of L_p with identical element and variable lists are
  /// indistinguishable: fold each into the lowest-index one.
  void detect_supervariables() {
    std::sort(candidates_.begin(), candidates_.end());
    for (std::size_t a = 0; a < candidates_.size(); ++a) {
      const Index i = candidates_[a].second;
      if (node_[u(i)].state != State::kVariable) continue;
      bool marked = false;
      for (std::size_t b = a + 1; b < candidates_.size() &&
                                  candidates_[b].first == candidates_[a].first;
           ++b) {
        const Index j = candidates_[b].second;
        const Node& ni = node_[u(i)];
        const Node& nj = node_[u(j)];
        if (nj.state != State::kVariable || nj.len != ni.len ||
            nj.elen != ni.elen) {
          continue;
        }
        if (!marked) {
          ++mark_stamp_;
          for (const Index x : list(i)) mark_[u(x)] = mark_stamp_;
          marked = true;
        }
        const auto lj = list(j);
        if (!std::all_of(lj.begin(), lj.end(), [this](Index x) {
              return mark_[u(x)] == mark_stamp_;
            })) {
          continue;
        }
        node_[u(i)].nv += node_[u(j)].nv;
        merge(j, i);
      }
    }
  }

  /// Drop merged variables from L_p, store it as p's element list and give
  /// each survivor its new approximate external degree.
  void finalize_element(Index p) {
    std::size_t keep = 0;
    for (const Index i : lp_) {
      Node& ni = node_[u(i)];
      if (ni.state != State::kVariable) continue;
      lp_[keep++] = i;
      ni.degree = std::min(ni.degree + lp_weight_ - ni.nv,
                           n_ - eliminated_ - ni.nv);
      heap_.set(i, ni.degree);
    }
    lp_.resize(keep);
    Node& np = node_[u(p)];
    np.pe = static_cast<Index>(iw_.size());
    np.len = static_cast<Index>(keep);
    np.elen = 0;
    np.degree = lp_weight_;
    iw_.insert(iw_.end(), lp_.begin(), lp_.end());
  }

  /// Number the pivots in elimination order; each pivot's step also takes
  /// every node merged into it (supervariable members and mass-eliminated
  /// variables), in node-index order. These nodes form one clique with
  /// L_p, so their relative order does not change the fill.
  std::vector<Index> permutation() {
    std::vector<Index> step_of(u(n_), -1);
    for (std::size_t s = 0; s < pivots_.size(); ++s) {
      step_of[u(pivots_[s])] = static_cast<Index>(s);
    }
    std::vector<Index> start(pivots_.size() + 1, 0);
    std::vector<Index> step_of_node(u(n_));
    for (Index x = 0; x < n_; ++x) {
      Index r = x;
      while (node_[u(r)].state == State::kMerged) r = rep_[u(r)];
      step_of_node[u(x)] = step_of[u(r)];
      ++start[u(step_of[u(r)]) + 1];
    }
    for (std::size_t s = 0; s < pivots_.size(); ++s) start[s + 1] += start[s];
    std::vector<Index> perm(u(n_));
    for (Index x = 0; x < n_; ++x) perm[u(start[u(step_of_node[u(x)])]++)] = x;
    return perm;
  }

  /// Everything the elimination loop reads about one node, kept together
  /// so that visiting a neighbour touches one small record, not several
  /// arrays.
  struct Node {
    // The node's list in iw_: start, length, and how many leading entries
    // are elements.
    Index pe = 0;
    Index len = 0;
    Index elen = 0;
    // Original nodes a principal variable stands for (0 once merged).
    Index nv = 1;
    // Approximate external degree of a variable; weighted |L_e| of an
    // element.
    Index degree = 0;
    // |L_e \ L_p| of an element, valid while `stamp` is the current stamp.
    Index w = 0;
    // The current pivot's stamp: a variable carries it while it is in L_p,
    // an element once its `w` has been set for this pivot.
    Index stamp = 0;
    State state = State::kVariable;
  };

  const Index n_;
  // The quotient graph's lists.
  std::vector<Index> iw_;
  std::vector<Node> node_;
  std::vector<Index> rep_;
  DegreeHeap heap_;
  std::vector<Index> pivots_;
  Index eliminated_ = 0;
  // Per-pivot scratch: L_p, its weight, and the stamp marking L_p
  // membership and valid w_ entries.
  std::vector<Index> lp_;
  Index lp_weight_ = 0;
  Index stamp_ = 0;
  std::vector<std::pair<std::uint64_t, Index>> candidates_;
  std::vector<Index> mark_;
  Index mark_stamp_ = 0;
};

}  // namespace

std::vector<Index> approximate_minimum_degree(const Csr& a) {
  GRIDSE_CHECK(a.rows() == a.cols());
  return Amd(a).run();
}

std::vector<Index> invert_permutation(std::span<const Index> perm) {
  std::vector<Index> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<Index>(i);
  }
  return inv;
}

}  // namespace gridse::sparse
