#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace gridse::sparse {

/// Approximate minimum degree (AMD) fill-reducing ordering of the pattern
/// of A + Aᵀ (Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 17(4),
/// 1996). Eliminates on a quotient graph of variables and elements, scores
/// each variable by its approximate external degree, absorbs elements that
/// a newer element covers, merges indistinguishable variables into
/// supervariables and mass-eliminates variables left with no neighbour
/// outside the new element. Returns perm such that perm[new_index] =
/// old_index; the diagonal is ignored and disconnected patterns need no
/// special handling. Fully deterministic: the pivot is the variable of
/// least (degree, node index), supervariables keep their lowest-index
/// member, and each pivot's nodes are numbered in index order, so the
/// permutation — and every SymbolicPlan derived from it — is bit-identical
/// across runs, thread counts and platforms.
std::vector<Index> approximate_minimum_degree(const Csr& a);

/// Inverse of a permutation vector.
std::vector<Index> invert_permutation(std::span<const Index> perm);

}  // namespace gridse::sparse
