#pragma once

#include <cmath>
#include <complex>
#include <cstdint>

#include "grid/dc_powerflow.hpp"
#include "grid/network.hpp"
#include "grid/state.hpp"
#include "grid/ybus.hpp"
#include "sparse/gmres.hpp"

namespace gridse::grid {

struct PowerFlowOptions {
  double tolerance = 1e-10;  ///< max |mismatch| in p.u.
  int max_iterations = 30;
};

struct PowerFlowResult {
  GridState state;
  bool converged = false;
  int iterations = 0;
  double max_mismatch = 0.0;
};

/// A caller-owned slot for an AC power flow re-solved every frame: the
/// fast-decoupled B′ and B″ factors (Stott & Alsaç 1974) that precondition
/// each Newton step, and the GMRES workspace. Both matrices are read off
/// Ybus, so a frame where only loads moved reuses both factors; a changed
/// Ybus refactors the matrix it changed.
class PowerFlowFactors {
 public:
  /// B′ = −Im Ybus over the non-slack buses.
  [[nodiscard]] const BprimeFactor& bprime() const { return bprime_; }
  /// B″ = −Im Ybus over the PQ buses.
  [[nodiscard]] const BprimeFactor& bdoubleprime() const {
    return bdoubleprime_;
  }
  /// GMRES iterations of every solve run through this slot.
  [[nodiscard]] std::uint64_t gmres_iterations() const {
    return gmres_iterations_;
  }

 private:
  friend PowerFlowResult solve_power_flow(const Network& network,
                                          PowerFlowFactors& slot,
                                          const PowerFlowOptions& options);

  BprimeFactor bprime_;
  BprimeFactor bdoubleprime_;
  sparse::GmresWorkspace gmres_;
  std::uint64_t gmres_iterations_ = 0;
};

/// Newton AC power flow in polar coordinates. Produces the "true"
/// operating state that the measurement generator samples from; mirrors the
/// role of the real grid + SCADA in the paper's testbed.
/// Sparse Newton–Krylov: the mismatch and the Jacobian come from a
/// MeasurementKernel over one P injection per non-slack bus and one Q
/// injection per PQ bus (the estimator's h(x)), and each Newton correction
/// is solved by GMRES right-preconditioned by the block diagonal of the
/// slot's B′ and B″ factors (Flueck & Chiang 1998). Starts flat: θ = 0,
/// |V| = 1 at PQ buses and the voltage setpoint elsewhere.
/// Throws ConvergenceFailure when the iteration diverges numerically (NaN),
/// but returns converged=false (not a throw) when it runs out of Newton
/// iterations or a GMRES solve misses its tolerance. The result's
/// iterations and max_mismatch are those of the returned state.
/// `network.validate()` runs only when the slot refactors.
PowerFlowResult solve_power_flow(const Network& network,
                                 PowerFlowFactors& slot,
                                 const PowerFlowOptions& options = {});

/// As above, through a temporary slot.
PowerFlowResult solve_power_flow(const Network& network,
                                 const PowerFlowOptions& options = {});

/// The bus voltage phasor vm·(cos θ, sin θ). Unlike std::polar, whose
/// magnitude must be ≥ 0, it takes any vm: a diverging Newton iterate or
/// estimate can carry a negative |V|.
inline std::complex<double> phasor(double vm, double theta) {
  return {vm * std::cos(theta), vm * std::sin(theta)};
}

/// Complex power injections S_i = V_i (Y V)*_i for all buses at `state`.
/// Returns (P, Q) vectors, from the phasor product rather than the
/// MeasurementKernel's polar sums: tests check power-flow consistency with
/// it.
std::pair<std::vector<double>, std::vector<double>> bus_injections(
    const sparse::CsrComplex& ybus, const GridState& state);

}  // namespace gridse::grid
