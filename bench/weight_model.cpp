// Ablation bench: sets the paper's empirical cost model (Expressions
// (1)-(4)) against this implementation. The paper calibrated Ni = g1*x + g2
// on a 14-bus subsystem (g1 = 3.7579, g2 = 5.2464) where Ni counts solver
// iterations per SE run. We measure our estimator's Gauss–Newton and total
// inner (PCG) iterations on the IEEE 14-bus system across noise levels.
//
// Expression (2)'s growth with noise is what a fixed numeric stop gives: the
// estimate's σ scales with x, so a stop at a fixed max |Δx| needs more steps
// the noisier the frame. This estimator stops on the Newton decrement, a
// step of at most one standard deviation of the estimate, which scales with
// x as well; above the lowest noise level its effort no longer depends on x.
// The mapper's vertex weights keep the paper's g1 and g2 regardless.
#include "bench_util.hpp"
#include "estimation/wls.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "mapping/weight_model.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace gridse;

int run() {
  bench::print_header(
      "Ablation — Expression (2) iteration model vs measured iterations",
      "Ni = g1*x + g2 with the paper's 14-bus calibration vs the measured\n"
      "Gauss-Newton and inner PCG iteration counts of this estimator on the\n"
      "IEEE 14-bus system, averaged over 20 seeded frames per noise level.");

  const io::Case c = io::ieee14();
  const grid::PowerFlowResult pf = grid::solve_power_flow(c.network);
  const mapping::WeightModelParams params;

  TextTable t({"noise x", "paper Ni = g1*x+g2", "measured GN iters",
               "measured inner PCG iters", "predicted Wv (14 buses)"});
  std::vector<double> inner;
  for (const double x : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    grid::MeasurementPlan plan;
    plan.noise_level = x;
    const grid::MeasurementGenerator gen(c.network, plan);
    Rng rng(2024);
    double gn_sum = 0.0;
    double inner_sum = 0.0;
    const int frames = 20;
    const estimation::WlsEstimator est(c.network);
    for (int f = 0; f < frames; ++f) {
      const grid::MeasurementSet meas = gen.generate(pf.state, rng);
      const estimation::WlsResult r = est.estimate(meas);
      gn_sum += r.iterations;
      inner_sum += r.inner_iterations;
    }
    const double ni_paper = mapping::predicted_iterations(x, params);
    t.add_row({strfmt("%.2f", x), strfmt("%.2f", ni_paper),
               strfmt("%.2f", gn_sum / frames),
               strfmt("%.2f", inner_sum / frames),
               strfmt("%.1f", mapping::vertex_weight(14, x, params))});
    inner.push_back(inner_sum / frames);
  }
  bench::print_table(t);

  // Whether measured effort grows with noise, the property Expression (2)
  // encodes: reported, not required (see the header comment).
  bool grows = true;
  for (std::size_t i = 1; i < inner.size(); ++i) {
    grows &= inner[i] >= inner[i - 1] - 1.0;
  }
  std::printf("Measured solver effort grows with the frame noise level: %s\n"
              "(Gauss-Newton stops on a decrement in units of the estimate's\n"
              "own sigma; Expression (2)'s growth comes from a fixed step\n"
              "tolerance).\n",
              grows ? "yes" : "no");
  return 0;
}

}  // namespace

int main() { return run(); }
