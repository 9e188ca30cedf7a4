// DSE Step-1 sweep bench (google-benchmark): LocalEstimator::run_step1 over
// every subsystem of a decomposition, one estimator after another, each
// against its PlanRegistry SolverCache exactly as DseDriver runs it, so
// symbolic plans persist across repetitions. Each lane's WLS runs PCG on
// the LDLt factor of its first gain, as in the cycle.
// The deterministic Gauss-Newton iteration counts and subsystem ("lane")
// counts are exported as counters and gated in CI (tools/bench_gate.py
// promotes gn_iters / lanes counters to enforced).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/local_estimator.hpp"
#include "core/plan_registry.hpp"
#include "decomp/decomposition.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "util/rng.hpp"

namespace {

using namespace gridse;

/// One decomposed case with ready-to-solve measurements: the Step-1 inputs
/// of every subsystem.
struct CaseFixture {
  io::GeneratedCase generated;
  decomp::Decomposition d;
  grid::MeasurementSet meas;
};

CaseFixture make_fixture(io::GeneratedCase generated, std::uint64_t seed) {
  CaseFixture fx{std::move(generated), {}, {}};
  fx.d = decomp::decompose(fx.generated.kase.network,
                           fx.generated.subsystem_of_bus);
  decomp::analyze_sensitivity(fx.generated.kase.network, fx.d, {});
  const grid::PowerFlowResult pf =
      grid::solve_power_flow(fx.generated.kase.network);
  grid::MeasurementPlan plan;
  for (const decomp::Subsystem& s : fx.d.subsystems) {
    plan.pmu_buses.push_back(s.buses.front());
  }
  grid::MeasurementGenerator gen(fx.generated.kase.network, plan);
  Rng rng(seed);
  fx.meas = gen.generate(pf.state, rng);
  return fx;
}

const CaseFixture& fixture118() {
  static const CaseFixture fx = make_fixture(io::ieee118_dse(), 7);
  return fx;
}

const CaseFixture& fixture_wecc() {
  static const CaseFixture fx = make_fixture(io::wecc37(), 7);
  return fx;
}

/// One frame's routing, then per-subsystem run_step1 with registry caches,
/// as the driver does.
void bench_sequential(benchmark::State& state, const CaseFixture& fx) {
  core::PlanRegistry registry;
  std::vector<std::unique_ptr<core::LocalEstimator>> ests;
  for (int s = 0; s < fx.d.num_subsystems(); ++s) {
    core::LocalEstimatorOptions opts;
    opts.wls.cache = registry.cache_for(s);
    ests.push_back(std::make_unique<core::LocalEstimator>(
        fx.generated.kase.network, fx.d, s, opts));
  }
  int gn_iters = 0;
  for (auto _ : state) {
    gn_iters = 0;
    const decomp::MeasurementRoute route = decomp::route_measurements(
        fx.d, fx.generated.kase.network, fx.meas);
    for (auto& est : ests) {
      const core::LocalSolveInfo info = est->run_step1(fx.meas, route);
      gn_iters += info.gauss_newton_iterations;
      benchmark::DoNotOptimize(info.objective);
    }
  }
  state.counters["gn_iters"] = gn_iters;
  state.counters["lanes"] = fx.d.num_subsystems();
}

void BM_Step1Sequential118(benchmark::State& s) {
  bench_sequential(s, fixture118());
}
void BM_Step1SequentialWecc(benchmark::State& s) {
  bench_sequential(s, fixture_wecc());
}

BENCHMARK(BM_Step1Sequential118)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Step1SequentialWecc)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
