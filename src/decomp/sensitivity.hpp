#pragma once

#include "decomp/decomposition.hpp"
#include "grid/network.hpp"

namespace gridse::decomp {

/// Controls the preliminary-step sensitivity analysis (paper §II: "sensitivity
/// analysis is usually performed to determine the sensitive internal buses …
/// carried out off-line, once for a given graph topology").
struct SensitivityOptions {
  /// Internal buses within this many hops of a boundary bus are sensitive.
  int hops = 1;
};

/// Fill in `sensitive_internal` for every subsystem of `d`: the internal
/// (non-boundary) buses whose state is materially affected by neighbouring
/// subsystems, i.e. those within `hops` internal branches of the boundary.
/// With the boundary buses they take their Step-2 values in the DSE
/// combine, and they count in gs().
void analyze_sensitivity(const grid::Network& network, Decomposition& d,
                         const SensitivityOptions& options = {});

}  // namespace gridse::decomp
