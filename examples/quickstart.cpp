// Quickstart: load the IEEE 14-bus case, synthesize one SCADA scan from the
// power-flow solution, and run the centralized WLS state estimator — the
// minimal end-to-end use of the library.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "estimation/bad_data.hpp"
#include "estimation/wls.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "util/rng.hpp"

int main() {
  using namespace gridse;

  // 1. Load a network model (the standard IEEE 14-bus test case ships with
  //    the library; load_case_file() reads the same format from disk).
  const io::Case kase = io::ieee14();
  std::printf("loaded %s: %d buses, %zu branches\n", kase.name.c_str(),
              kase.network.num_buses(), kase.network.num_branches());

  // 2. Solve a power flow to obtain the "true" operating state that the
  //    field measurements are drawn from.
  const grid::PowerFlowResult pf = grid::solve_power_flow(kase.network);
  std::printf("power flow converged in %d iterations (max mismatch %.2e)\n",
              pf.iterations, pf.max_mismatch);

  // 3. Synthesize one measurement scan: branch flows, bus injections and
  //    voltage magnitudes, with realistic Gaussian noise.
  grid::MeasurementGenerator generator(kase.network, grid::MeasurementPlan{});
  Rng rng(42);
  const grid::MeasurementSet scan = generator.generate(pf.state, rng);
  std::printf("synthesized %zu measurements (%d states -> redundancy %.1f)\n",
              scan.size(), 2 * kase.network.num_buses() - 1,
              static_cast<double>(scan.size()) /
                  (2 * kase.network.num_buses() - 1));

  // 4. Estimate the state with weighted least squares. The solver is the
  //    paper's preconditioned conjugate gradient, preconditioned by the
  //    exact LDLT factor of the first Gauss-Newton gain.
  const estimation::WlsEstimator estimator(kase.network);
  const estimation::WlsResult result = estimator.estimate(scan);
  std::printf("WLS converged: %s after %d Gauss-Newton iterations "
              "(%d inner PCG iterations), J(x) = %.2f\n",
              result.converged ? "yes" : "no", result.iterations,
              result.inner_iterations, result.objective);

  // 5. Check estimate quality against the known truth and the chi-square
  //    bad-data test.
  std::printf("max |V| error: %.2e pu, max angle error: %.2e rad\n",
              grid::max_vm_error(result.state, pf.state),
              grid::max_angle_error(result.state, pf.state));
  const estimation::ChiSquareTest chi = estimation::chi_square_test(
      result, estimator.model().state_index().size());
  std::printf("chi-square test: J = %.1f vs threshold %.1f -> %s\n",
              chi.objective, chi.threshold,
              chi.suspect_bad_data ? "bad data suspected" : "clean");

  std::printf("\n  bus |   |V| est |  |V| true | angle est (deg) | angle true\n");
  for (grid::BusIndex b = 0; b < kase.network.num_buses(); ++b) {
    std::printf("  %3d |  %8.4f | %9.4f | %15.3f | %10.3f\n",
                kase.network.bus(b).external_id,
                result.state.vm[static_cast<std::size_t>(b)],
                pf.state.vm[static_cast<std::size_t>(b)],
                result.state.theta[static_cast<std::size_t>(b)] * 57.29578,
                pf.state.theta[static_cast<std::size_t>(b)] * 57.29578);
  }
  return result.converged ? 0 : 1;
}
