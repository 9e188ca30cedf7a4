// Solver bench (google-benchmark): the WLS gain-matrix solve the paper's
// §IV-C motivates with the preconditioned CG ("the condition number of  is
// significantly lower than that of A, to make the equation converge
// faster"). On real gain matrices of the IEEE 14/118 and WECC systems it
// times the two halves of the shipped solve apart: BM_Ldlt* the LDLt factor
// of a solve's first gain, BM_Pcg* PCG on a later, moved gain
// preconditioned by that factor. BM_GnStepSubsystem10k times the
// measurement half of one Gauss–Newton step (h, H, gain, rhs) on a 10k
// subsystem model, BM_Wls118_Pcg a whole estimate, BM_AcTruth118 the
// ieee118 AC truth's Newton–Krylov power flow, and main() reports the
// condition-number effect.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "decomp/decomposition.hpp"
#include "decomp/sensitivity.hpp"
#include "decomp/subsystem_model.hpp"
#include "estimation/wls.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "io/synthetic.hpp"
#include "sparse/cg.hpp"
#include "sparse/dense.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/normal_equations.hpp"
#include "sparse/vector_ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace gridse;

/// The first and a later gain of one WLS solve, and the later one's rhs.
struct GainSystem {
  /// The gain at flat start: the one WLS factors on its first iteration.
  sparse::Csr gain;
  /// The gain at the power-flow state: a nearby gain of the same pattern,
  /// as WLS solves after its first iteration.
  sparse::Csr moved_gain;
  /// Hᵀ W r at the power-flow state.
  std::vector<double> rhs;
};

/// Build the flat-start and power-flow-state WLS gain systems for a case.
GainSystem make_gain(const grid::Network& network) {
  const grid::PowerFlowResult pf = grid::solve_power_flow(network);
  grid::MeasurementGenerator gen(network, {});
  Rng rng(11);
  const grid::MeasurementSet set = gen.generate(pf.state, rng);
  const grid::StateIndex index(network.num_buses(), network.slack_bus());
  const grid::MeasurementModel model(network, index);
  const std::vector<double> w = set.weights();
  GainSystem sys;
  sys.gain = sparse::normal_matrix(
      model.jacobian(set, grid::GridState(network.num_buses())), w);
  const sparse::Csr h = model.jacobian(set, pf.state);
  sys.moved_gain = sparse::normal_matrix(h, w);
  const std::vector<double> r = sparse::subtract(set.values(),
                                                 model.evaluate(set, pf.state));
  sys.rhs = sparse::normal_rhs(h, w, r);
  return sys;
}

const GainSystem& gain14() {
  static const GainSystem sys = make_gain(io::ieee14().network);
  return sys;
}

const GainSystem& gain118() {
  static const GainSystem sys = make_gain(io::ieee118_dse().kase.network);
  return sys;
}

const GainSystem& gain_wecc() {
  static const GainSystem sys = make_gain(io::wecc37().kase.network);
  return sys;
}

/// The largest subsystem of the 10k tier (the generator's own split), as
/// its Step-1 local network. A subsystem without the global slack gets its
/// first bus as the reference, as its local estimate is anchored there.
const GainSystem& gain_subsystem10k() {
  static const GainSystem sys = [] {
    const io::GeneratedCase gc = io::interconnection10k();
    const decomp::Decomposition d =
        decomp::decompose(gc.kase.network, gc.subsystem_of_bus);
    int largest = 0;
    for (int s = 1; s < d.num_subsystems(); ++s) {
      if (d.subsystems[static_cast<std::size_t>(s)].buses.size() >
          d.subsystems[static_cast<std::size_t>(largest)].buses.size()) {
        largest = s;
      }
    }
    grid::Network local =
        decomp::extract_local(gc.kase.network, d, largest).network;
    bool has_slack = false;
    for (const grid::Bus& bus : local.buses()) {
      has_slack = has_slack || bus.type == grid::BusType::kSlack;
    }
    if (!has_slack) local.set_bus_type(0, grid::BusType::kSlack, 1.0);
    return make_gain(local);
  }();
  return sys;
}

/// PCG on the moved gain, preconditioned by the first gain's LDLt factor.
void bench_pcg(benchmark::State& state, const GainSystem& sys) {
  sparse::SparseLdlt precond;
  precond.factorize_with_shift(sys.gain,
                               std::make_shared<const sparse::SymbolicPlan>(
                                   sparse::SymbolicPlan::analyze(sys.gain)));
  sparse::CgOptions opts;
  opts.tolerance = 1e-12;  // the WLS inner tolerance
  int iterations = 0;
  for (auto _ : state) {
    std::vector<double> x(sys.rhs.size(), 0.0);
    const sparse::CgReport rep =
        sparse::pcg(sys.moved_gain, sys.rhs, x, precond, opts);
    iterations = rep.iterations;
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["cg_iters"] = iterations;
}

/// Numeric LDLt factor and solve over a plan analyzed once, outside the
/// timed loop, as every caller of a SolverCache plan runs it.
void bench_ldlt(benchmark::State& state, const GainSystem& sys) {
  const auto plan = std::make_shared<const sparse::SymbolicPlan>(
      sparse::SymbolicPlan::analyze(sys.gain));
  std::size_t factor_nnz = 0;
  for (auto _ : state) {
    sparse::SparseLdlt ldlt;
    ldlt.factorize(sys.gain, plan);
    auto x = ldlt.solve(sys.rhs);
    factor_nnz = ldlt.factor_nnz();
    benchmark::DoNotOptimize(x.data());
  }
  // Fill of the AMD-ordered factor: deterministic for the pattern, so a
  // change means the ordering changed.
  state.counters["factor_nnz"] = static_cast<double>(factor_nnz);
  // Panels the supernodal kernel runs over (advisory).
  state.counters["supernodes"] = static_cast<double>(plan->supernodes().size());
}

void BM_Pcg14(benchmark::State& s) { bench_pcg(s, gain14()); }
void BM_Ldlt14(benchmark::State& s) { bench_ldlt(s, gain14()); }
void BM_Pcg118(benchmark::State& s) { bench_pcg(s, gain118()); }
void BM_Ldlt118(benchmark::State& s) { bench_ldlt(s, gain118()); }
void BM_PcgWecc(benchmark::State& s) { bench_pcg(s, gain_wecc()); }
void BM_LdltWecc(benchmark::State& s) { bench_ldlt(s, gain_wecc()); }
void BM_LdltSubsystem10k(benchmark::State& s) {
  bench_ldlt(s, gain_subsystem10k());
}

/// One Gauss–Newton step's measurement work as WlsEstimator runs it, on the
/// largest extended (Step-2) model of the 10k tier: h and the Jacobian
/// values refilled in place by the solve's compiled kernel, then the gain
/// and the rhs Hᵀ W r refilled on the assembler's pattern. Compiling the
/// kernel and analyzing the assembler happen once, outside the timed loop,
/// as once per solve.
void BM_GnStepSubsystem10k(benchmark::State& state) {
  struct Step {
    decomp::SubsystemModel ext;
    grid::MeasurementSet set;
    grid::GridState at;
  };
  static const Step step = [] {
    const io::GeneratedCase gc = io::interconnection10k();
    const grid::Network& net = gc.kase.network;
    // Sensitivity-analyzed, as DseSystem builds its decomposition.
    decomp::Decomposition d = decomp::decompose(net, gc.subsystem_of_bus);
    decomp::analyze_sensitivity(net, d, {});
    Step out;
    for (int s = 0; s < d.num_subsystems(); ++s) {
      decomp::SubsystemModel ext = decomp::extract_extended(net, d, s);
      if (ext.global_bus.size() > out.ext.global_bus.size()) {
        out.ext = std::move(ext);
      }
    }
    // Telemetry valued at a jittered flat profile, solved from flat.
    grid::GridState truth(net.num_buses());
    Rng rng(13);
    for (std::size_t b = 0; b < truth.vm.size(); ++b) {
      truth.theta[b] = rng.uniform(-0.05, 0.05);
      truth.vm[b] = rng.uniform(0.97, 1.03);
    }
    const grid::MeasurementGenerator gen(net, {});
    out.set = out.ext.filter(gen.generate(truth, rng));
    out.at = grid::GridState(out.ext.network.num_buses());
    return out;
  }();
  const grid::BusIndex ref = std::max<grid::BusIndex>(step.ext.own_slack, 0);
  const grid::MeasurementModel model(
      step.ext.network,
      grid::StateIndex(step.ext.network.num_buses(), ref), step.ext.ybus);
  grid::MeasurementKernel kernel(model, step.set);
  const sparse::NormalAssembler assembler =
      sparse::NormalAssembler::analyze(kernel.jacobian());
  const std::vector<double> w = step.set.weights();
  const std::vector<double> z = step.set.values();
  std::vector<double> h(step.set.size());
  std::vector<double> wr(step.set.size());
  std::vector<double> rhs(static_cast<std::size_t>(model.state_index().size()));
  kernel.linearize(step.at, h);
  sparse::Csr gain = assembler.assemble(kernel.jacobian(), w);
  for (auto _ : state) {
    kernel.linearize(step.at, h);
    for (std::size_t i = 0; i < wr.size(); ++i) wr[i] = w[i] * (z[i] - h[i]);
    assembler.assemble(kernel.jacobian(), w, gain);
    kernel.jacobian().multiply_transpose(wr, rhs);
    benchmark::DoNotOptimize(rhs.data());
    benchmark::DoNotOptimize(gain.values().data());
  }
  // Structural Jacobian entries: fixed by the model and its telemetry, so a
  // change means the kernel's pattern rule changed.
  state.counters["jac_nnz"] = static_cast<double>(kernel.jacobian().nnz());
  state.counters["rows"] = static_cast<double>(step.set.size());
  // The largest Step-2 model's size: pulling remote buses beyond the tie
  // lines' far ends into extended models grows it.
  state.counters["model_buses"] =
      static_cast<double>(step.ext.global_bus.size());
}
BENCHMARK(BM_GnStepSubsystem10k);

BENCHMARK(BM_Pcg14);
BENCHMARK(BM_Ldlt14);
BENCHMARK(BM_Pcg118);
BENCHMARK(BM_Ldlt118);
BENCHMARK(BM_PcgWecc);
BENCHMARK(BM_LdltWecc);
BENCHMARK(BM_LdltSubsystem10k);

/// Full WLS estimation, IEEE 118: PCG preconditioned by the solve's first
/// LDLt factor.
void BM_Wls118_Pcg(benchmark::State& state) {
  static const io::GeneratedCase generated = io::ieee118_dse();
  static const grid::PowerFlowResult pf =
      grid::solve_power_flow(generated.kase.network);
  static const grid::MeasurementSet meas = [] {
    grid::MeasurementGenerator gen(generated.kase.network, {});
    Rng rng(5);
    return gen.generate(pf.state, rng);
  }();
  // One estimator reused across iterations: after the first estimate() its
  // SolverCache holds the symbolic plans, so this measures the
  // repeated-cycle fast path (numeric-only refactorization).
  const estimation::WlsEstimator est(generated.kase.network);
  int gn_iters = 0;
  int pcg_iters = 0;
  for (auto _ : state) {
    auto result = est.estimate(meas);
    gn_iters = result.iterations;
    pcg_iters = result.inner_iterations;
    benchmark::DoNotOptimize(result.objective);
  }
  state.counters["gn_iters"] = gn_iters;
  // Inner PCG steps of one estimate.
  state.counters["pcg_iters"] = pcg_iters;
}
BENCHMARK(BM_Wls118_Pcg)->Unit(benchmark::kMillisecond);

/// The AC truth of one ieee118_dse frame: the Newton–Krylov power flow from
/// a flat start through a warm slot, whose B′ and B″ factors every
/// iteration reuses, as DseSystem's per-frame truth does.
void BM_AcTruth118(benchmark::State& state) {
  static const io::GeneratedCase generated = io::ieee118_dse();
  const grid::Network& network = generated.kase.network;
  grid::PowerFlowFactors slot;
  (void)grid::solve_power_flow(network, slot);
  int newton_iters = 0;
  std::uint64_t gmres_iters = 0;
  for (auto _ : state) {
    const std::uint64_t before = slot.gmres_iterations();
    const grid::PowerFlowResult pf = grid::solve_power_flow(network, slot);
    newton_iters = pf.iterations;
    gmres_iters = slot.gmres_iterations() - before;
    benchmark::DoNotOptimize(pf.state.vm.data());
  }
  // Newton steps and GMRES iterations of one solve: deterministic, so a
  // change means the step, the preconditioner or the GMRES stop changed.
  state.counters["newton_iters"] = newton_iters;
  state.counters["gmres_iters"] = static_cast<double>(gmres_iters);
}
BENCHMARK(BM_AcTruth118)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Condition-number report motivating the preconditioner (paper §IV-C).
  {
    const GainSystem& sys = gain14();
    const auto dense_vals = sys.gain.to_dense();
    const auto n = static_cast<std::size_t>(sys.gain.rows());
    sparse::DenseMatrix dm(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        dm(i, j) = dense_vals[i * n + j];
      }
    }
    std::printf("IEEE 14 gain-matrix condition estimate: %.3e\n",
                dm.condition_estimate_spd());
    // After Jacobi preconditioning: D^{-1/2} G D^{-1/2}
    const auto diag = sys.gain.diagonal();
    sparse::DenseMatrix scaled(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        scaled(i, j) = dense_vals[i * n + j] /
                       std::sqrt(diag[i] * diag[j]);
      }
    }
    std::printf("after Jacobi scaling:                   %.3e "
                "(the paper's \"significantly lower\" condition number)\n\n",
                scaled.condition_estimate_spd());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
