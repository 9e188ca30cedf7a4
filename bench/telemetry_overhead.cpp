// Telemetry-sampler overhead bench (google-benchmark): what one cycle
// boundary costs with the per-cycle time-series sampler armed — registry
// snapshot, counter/histogram delta rendering, the JSONL append, and the
// live exposition rewrite (docs/OBSERVABILITY.md). The budget is <1% of a
// cycle: the paper's ieee118 cycles run tens of milliseconds, so the
// sampler must stay well under a few hundred microseconds.
//
// The registry is populated to the size a real ieee118 run produces
// (~30 counters, a few gauges, ~10 histograms, the span taxonomy) so the
// snapshot walk and delta render are measured at representative width.
#include <benchmark/benchmark.h>

#include "obs/metrics.hpp"

#if GRIDSE_OBS

#include <filesystem>
#include <string>

#include "obs/telemetry.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gridse;

/// Simulate one cycle's worth of instrument traffic on `registry`, at the
/// metric count a 3-cluster ieee118 cycle actually touches.
void touch_instruments(obs::MetricsRegistry& registry, int cycle) {
  for (int c = 0; c < 30; ++c) {
    registry.counter("bench.counter_" + std::to_string(c)).add(7);
  }
  for (int g = 0; g < 4; ++g) {
    registry.gauge("bench.gauge_" + std::to_string(g)).set(cycle % 13);
  }
  for (int h = 0; h < 10; ++h) {
    auto& hist = registry.histogram("bench.hist_" + std::to_string(h));
    for (int o = 0; o < 9; ++o) {
      hist.observe(1e-4 * (o + 1));
    }
  }
  for (int s = 0; s < 12; ++s) {
    registry.record_span("bench.span_" + std::to_string(s), "bench.root",
                         2e-3);
  }
}

/// Snapshot cost alone: the lock-held walk over every instrument.
void BM_registry_snapshot(benchmark::State& state) {
  obs::MetricsRegistry registry;
  touch_instruments(registry, 0);
  for (auto _ : state) {
    obs::Snapshot snap = registry.snapshot();
    benchmark::DoNotOptimize(snap.counters.size());
  }
}
BENCHMARK(BM_registry_snapshot);

/// The full cycle-boundary path: instrument traffic for one cycle, then
/// on_cycle_end (snapshot + delta JSONL append + exposition rewrite).
void BM_cycle_telemetry(benchmark::State& state) {
  const fs::path dir = fs::temp_directory_path() / "gridse_telemetry_bench";
  fs::remove_all(dir);
  obs::MetricsRegistry registry;
  runtime::TelemetryConfig options;
  options.dir = dir.string();
  obs::TelemetrySampler sampler(options, registry);
  std::int64_t cycle = 0;
  for (auto _ : state) {
    touch_instruments(registry, static_cast<int>(cycle));
    obs::CycleStamp stamp;
    stamp.cycle = cycle++;
    stamp.participants = {0, 1, 2};
    stamp.total_seconds = 0.06;
    sampler.on_cycle_end(stamp);
  }
  state.counters["cycles"] = static_cast<double>(sampler.cycles_recorded());
  fs::remove_all(dir);
}
BENCHMARK(BM_cycle_telemetry);

/// The instrument traffic alone, for subtraction: BM_cycle_telemetry minus
/// this is the sampler's own cost.
void BM_instrument_traffic(benchmark::State& state) {
  obs::MetricsRegistry registry;
  int cycle = 0;
  for (auto _ : state) {
    touch_instruments(registry, cycle++);
  }
}
BENCHMARK(BM_instrument_traffic);

}  // namespace

#endif  // GRIDSE_OBS

BENCHMARK_MAIN();
