// Bad-data processing workflow on the IEEE 14-bus system: a gross error is
// injected into one telemetered flow, detected with the chi-square test,
// identified with the largest-normalized-residual method, removed, and the
// state re-estimated (Abur & Exposito, the paper's reference [19]).
//
//   $ ./examples/bad_data_detection
#include <cstdint>
#include <cstdio>

#include "estimation/bad_data.hpp"
#include "estimation/wls.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "util/rng.hpp"

int main() {
  using namespace gridse;

  const io::Case kase = io::ieee14();
  const grid::PowerFlowResult pf = grid::solve_power_flow(kase.network);
  grid::MeasurementGenerator gen(kase.network, {});
  Rng rng(9);
  grid::MeasurementSet scan = gen.generate(pf.state, rng);

  const estimation::WlsEstimator estimator(kase.network);

  // measurement redundancy: m meters against n states
  const std::size_t m = scan.items.size();
  const std::int32_t n = estimator.model().state_index().size();
  std::printf("measurements: m=%zu, n=%d, redundancy %.2f\n", m, n,
              static_cast<double>(m) / n);

  // corrupt one measurement with a gross error (sensor failure)
  const std::size_t victim = 12;
  std::printf("\ninjecting gross error into measurement #%zu (%s at bus %d): "
              "%.4f -> %.4f\n",
              victim, grid::meas_type_name(scan.items[victim].type),
              kase.network.bus(scan.items[victim].bus).external_id,
              scan.items[victim].value, scan.items[victim].value + 0.6);
  scan.items[victim].value += 0.6;

  // detect
  const estimation::WlsResult suspect = estimator.estimate(scan);
  const estimation::ChiSquareTest chi =
      estimation::chi_square_test(suspect, n);
  std::printf("chi-square: J = %.1f vs threshold %.1f -> %s\n", chi.objective,
              chi.threshold,
              chi.suspect_bad_data ? "BAD DATA SUSPECTED" : "clean");

  // identify
  const estimation::BadDataHit hit =
      estimation::largest_normalized_residual(estimator, scan, suspect);
  std::printf("largest normalized residual: r_N = %.1f at measurement #%zu "
              "(%s)\n",
              hit.normalized_residual, hit.measurement_index,
              hit.measurement_index == victim ? "CORRECTLY IDENTIFIED"
                                              : "wrong measurement!");

  // remove and re-estimate
  const estimation::BadDataScrub scrub =
      estimation::detect_and_remove(estimator, scan);
  std::printf("scrubbed %zu measurement(s); re-estimated: %s\n",
              scrub.removed.size(),
              scrub.result.converged ? "converged" : "failed");
  std::printf("max |V| error: %.2e pu with bad data -> %.2e pu after "
              "scrubbing\n",
              grid::max_vm_error(suspect.state, pf.state),
              grid::max_vm_error(scrub.result.state, pf.state));
  return 0;
}
