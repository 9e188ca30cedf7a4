#pragma once

#include <cmath>
#include <complex>

#include "grid/network.hpp"
#include "grid/state.hpp"
#include "grid/ybus.hpp"

namespace gridse::grid {

struct PowerFlowOptions {
  double tolerance = 1e-10;  ///< max |mismatch| in p.u.
  int max_iterations = 30;
  bool flat_start = true;
};

struct PowerFlowResult {
  GridState state;
  bool converged = false;
  int iterations = 0;
  double max_mismatch = 0.0;
};

/// Full-Newton AC power flow in polar coordinates. Produces the "true"
/// operating state that the measurement generator samples from; mirrors the
/// role of the real grid + SCADA in the paper's testbed.
/// Throws ConvergenceFailure when the iteration diverges numerically (NaN),
/// but returns converged=false (not a throw) when it merely runs out of
/// iterations, so callers can retry with a different start.
PowerFlowResult solve_power_flow(const Network& network,
                                 const PowerFlowOptions& options = {});

/// The bus voltage phasor vm·(cos θ, sin θ). Unlike std::polar, whose
/// magnitude must be ≥ 0, it takes any vm: a diverging Newton iterate or
/// estimate can carry a negative |V|.
inline std::complex<double> phasor(double vm, double theta) {
  return {vm * std::cos(theta), vm * std::sin(theta)};
}

/// Complex power injections S_i = V_i (Y V)*_i for all buses at `state`.
/// Returns (P, Q) vectors; used by tests to verify power-flow consistency
/// and by the measurement model as the injection reference.
std::pair<std::vector<double>, std::vector<double>> bus_injections(
    const sparse::CsrComplex& ybus, const GridState& state);

}  // namespace gridse::grid
