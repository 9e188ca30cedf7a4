// Frame benchmark driver: runs one workload of the GridSE estimation cycle
// and writes its raw samples as JSON; run.py turns them into metrics.
//
//   bench_cycle --workload NAME --seed N --out FILE
//               [--seconds S] [--frames F] [--setups R] [--trace DIR]
//
// End-to-end numbers time core::DseSystem::run_cycle from outside. With
// --trace DIR every timed frame also records per-frame deltas of the
// program's metrics registry, times shadow calls into the grid layer on the
// frame's own inputs, and the spans go to DIR/spans.json at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench_util.hpp"
#include "core/architecture.hpp"
#include "decomp/bus_partition.hpp"
#include "fault/topology_replay.hpp"
#include "grid/dc_powerflow.hpp"
#include "grid/powerflow.hpp"
#include "grid/topology.hpp"
#include "obs/metrics.hpp"
#include "span_recorder.hpp"
#include "util/timer.hpp"

namespace gridse::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Simulated seconds between consecutive frames; moves the diurnal load
/// profile and the mapping's per-frame noise level.
constexpr double kFrameStepSec = 60.0;
/// A frame whose estimate is further than this from truth has failed.
constexpr double kMaxVmError = 0.05;
/// A frame is interrupted when, around it, the hypervisor gave other guests
/// more than this share of all CPUs for the length of run_cycle; its latency
/// then describes the host more than the program.
constexpr double kMaxStolenShare = 0.05;

/// One workload: a tier, how it runs, and how its tail is judged. Why each
/// exists is in README.md; the table there and this one must agree.
struct Workload {
  const char* name;
  const char* tier;  ///< a bench::load_case name
  int parts;         ///< bus-partitioner subsystems; 0 = the case's own split
  int clusters;      ///< one solver worker each
  core::Transport transport;
  core::TruthMode truth;
  bool load_profile;
  bool replay;
  double rate_hz;          ///< frames per second; 0 = closed loop
  int warmup_frames;       ///< untimed, including the cold first frame
  int setups;              ///< set-ups per untraced run (setup_s = median)
  double tail_percentile;  ///< target; run.py lowers it to keep 10 beyond
  double deadline_ms;
  int count_window;  ///< traced frames the count metrics are taken over
  bool centralized;  ///< time the single-thread centralized baseline
};

constexpr Workload kWorkloads[] = {
    {"ieee118_pmu_medici", "ieee118", 0, 3, core::Transport::kMedici,
     core::TruthMode::kAcPowerFlow, true, false, 15.0, 10, 15, 95.0,
     1000.0 / 15.0, 30, true},
    {"tier10k_tracking", "10k", 32, 4, core::Transport::kInproc,
     core::TruthMode::kDcLinearized, true, false, 0.0, 1, 3, 75.0, 2000.0, 4,
     true},
    {"tier10k_replay", "10k", 32, 4, core::Transport::kInproc,
     core::TruthMode::kDcLinearized, false, true, 0.0, 1, 3, 75.0, 2000.0, 10,
     true},
    {"tier30k_tracking", "30k", 48, 4, core::Transport::kInproc,
     core::TruthMode::kDcLinearized, true, false, 0.0, 1, 3, 50.0, 4000.0, 2,
     false},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int frames = 0;  ///< > 0: exactly this many timed frames, ignore seconds
  int setups = 0;  ///< > 0: overrides the workload's set-up count
  std::string trace_dir;
  std::string out;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Diurnal system-load multiplier (±10% over a simulated day).
double diurnal_load(double time_sec) {
  return 1.0 + 0.10 * std::sin(2.0 * std::numbers::pi * time_sec / 86400.0);
}

/// Set-up layer times of one set-up, milliseconds.
struct SetupTimes {
  double case_ms = 0.0;
  double partition_ms = 0.0;
  double decompose_ms = 0.0;
  double construct_ms = 0.0;
  double cold_frame_ms = 0.0;
};

/// The tier's case from bench::load_case plus its decomposition. ieee118
/// keeps the paper's 9-subsystem split; the interconnection tiers are split
/// by the convergence-aware bus partitioner at partition seed 7 (the split
/// wecc_scaling uses), so every run of a tier solves the same subsystems
/// whatever the workload seed.
io::GeneratedCase load_partitioned_case(const Workload& w, SetupTimes& times,
                                        SpanRecorder* rec) {
  io::GeneratedCase gc;
  {
    SpanRecorder::Scope span(rec, "io.case", -1);
    const Timer timer;
    gc = load_case(w.tier);
    times.case_ms = timer.millis();
  }
  if (w.parts > 0) {
    SpanRecorder::Scope span(rec, "decomp.partition_buses", -1);
    graph::PartitionOptions popts;
    popts.k = w.parts;
    popts.seed = 7;
    popts.objective = graph::PartitionObjective::kConvergenceAware;
    const Timer timer;
    gc.subsystem_of_bus = decomp::partition_buses(gc.kase.network, popts);
    times.partition_ms = timer.millis();
  }
  return gc;
}

/// Four seeded outage → islanding → restore arcs, repeated back to back
/// (each arc returns to the base topology), so a run sees the same mix of
/// switching and quiet frames however many frames it completes.
fault::TopologyReplayPlan replay_plan(const grid::Network& network,
                                      std::uint64_t seed) {
  constexpr int kArcs = 4;
  constexpr std::int64_t kCycles = 2000;
  fault::ReplayScenarioOptions options;
  options.num_outages = 3;
  options.hold_cycles = 1;
  std::vector<fault::TopologyReplayPlan> arcs;
  for (int a = 0; a < kArcs; ++a) {
    arcs.push_back(fault::TopologyReplayPlan::generate(
        network, splitmix64(seed * kArcs + static_cast<std::uint64_t>(a)),
        options));
  }
  fault::TopologyReplayPlan plan;
  plan.seed = seed;
  std::int64_t base = 0;
  for (std::size_t a = 0; base < kCycles; ++a) {
    const fault::TopologyReplayPlan& arc = arcs[a % arcs.size()];
    for (fault::ScheduledTopologyEvent e : arc.events) {
      e.cycle += base;
      plan.events.push_back(e);
    }
    base += arc.last_cycle() + 1;
  }
  return plan;
}

core::SystemConfig system_config(const Workload& w, std::uint64_t seed,
                                 const grid::Network& network) {
  core::SystemConfig cfg;
  cfg.seed = seed;
  cfg.mapping.num_clusters = w.clusters;
  cfg.dse.workers_per_cluster = 1;
  cfg.transport = w.transport;
  cfg.truth_mode = w.truth;
  if (w.load_profile) cfg.load_profile = diurnal_load;
  // The replay keeps the default repartition threshold; README.md says why.
  if (w.replay) cfg.topology.plan = replay_plan(network, seed).to_json();
  return cfg;
}

/// Frame `index` runs at this simulated time; the seed sets the phase of
/// the day the run starts at.
double frame_time(std::uint64_t seed, std::int64_t index) {
  return static_cast<double>(splitmix64(seed) % 86400) +
         static_cast<double>(index) * kFrameStepSec;
}

struct Frame {
  double latency_ms = 0.0;
  double late_ms = 0.0;
  double cpu_ms = 0.0;  ///< process CPU time, from before the wait to the end
  bool interrupted = false;  ///< see kMaxStolenShare
  double vm_err = 0.0;       ///< worst bus |V| error, judges the frame
  double vm_rmse = 0.0;
  double angle_rmse = 0.0;
  bool ok = false;
};

/// Root-mean-square difference over all buses.
double rmse(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

/// Column-oriented samples of the traced frames: layer name → one value per
/// traced frame, in frame order.
using Layers = std::map<std::string, std::vector<double>>;

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// CPU time the hypervisor has given to other guests since boot, summed over
/// this machine's CPUs (the `steal` column of /proc/stat); 0 if unreadable.
double stolen_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  in >> cpu;
  for (double& t : ticks) in >> t;
  return in ? ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

/// TCP sockets opened so far in this network namespace: active plus passive
/// opens from /proc/net/snmp, one per connection end; -1 when unreadable.
double tcp_opens() {
  std::ifstream in("/proc/net/snmp");
  std::string header;
  std::string values;
  while (std::getline(in, header)) {
    if (header.rfind("Tcp:", 0) == 0 && std::getline(in, values)) {
      std::istringstream hs(header);
      std::istringstream vs(values);
      std::string key;
      std::string value;
      double opens = 0.0;
      while (hs >> key && vs >> value) {
        if (key == "ActiveOpens" || key == "PassiveOpens") {
          opens += std::stod(value);
        }
      }
      return opens;
    }
  }
  return -1.0;
}

template <typename Map>
double lookup(const Map& map, const std::string& name) {
  const auto it = map.find(name);
  return it == map.end() ? 0.0 : static_cast<double>(it->second);
}

/// Per-frame registry deltas (after − before) by instrument name.
struct RegistryDelta {
  const obs::Snapshot& before;
  const obs::Snapshot& after;

  [[nodiscard]] double counter(const std::string& name) const {
    return lookup(after.counters, name) - lookup(before.counters, name);
  }
  [[nodiscard]] double hist_sum(const std::string& name) const {
    return histogram(after, name).sum - histogram(before, name).sum;
  }
  [[nodiscard]] double span_ms(const std::string& name) const {
    return 1e3 * (span(after, name).total_seconds -
                  span(before, name).total_seconds);
  }

 private:
  static obs::HistogramSnapshot histogram(const obs::Snapshot& s,
                                          const std::string& name) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  }
  static obs::SpanSnapshot span(const obs::Snapshot& s,
                                const std::string& name) {
    const auto it = s.spans.find(name);
    return it == s.spans.end() ? obs::SpanSnapshot{} : it->second;
  }
};

/// The traced part of one frame: registry deltas, the CycleReport's own
/// facts, and shadow calls into the grid layer on the frame's inputs.
class FrameTracer {
 public:
  FrameTracer(const Workload& w, core::DseSystem& sys, std::uint64_t seed,
              SpanRecorder* rec)
      : w_(w), sys_(sys), rec_(rec), shadow_rng_(seed ^ 0x5ad0ull) {
    grid::MeasurementPlan plan;
    for (const decomp::Subsystem& s : sys.decomposition().subsystems) {
      plan.pmu_buses.push_back(*std::min_element(s.buses.begin(),
                                                 s.buses.end()));
    }
    generator_ = std::make_unique<grid::MeasurementGenerator>(sys.network(),
                                                              plan);
  }

  void before_frame() {
    // The histogram's max is cumulative; zero this one instrument so its
    // max is the frame's slowest Step-1 subsystem.
    obs::MetricsRegistry::global()
        .histogram("dse.step1.subsystem_seconds")
        .reset();
    opens_before_ = tcp_opens();
    before_ = obs::MetricsRegistry::global().snapshot();
  }

  void after_frame(std::int64_t index, double time_sec,
                   const core::CycleReport& rep, double run_cycle_ms,
                   Layers& layers) {
    const obs::Snapshot after = obs::MetricsRegistry::global().snapshot();
    const double opens_after = tcp_opens();
    const RegistryDelta d{before_, after};
    auto put = [&layers](const char* name, double value) {
      layers[name].push_back(value);
    };

    put("grid.truth_ms", shadow_truth_ms(index, time_sec));
    put("grid.measure_ms", shadow_measure_ms(index, time_sec));
    put("grid.measurements_per_frame",
        static_cast<double>(sys_.last_measurements().items.size()));

    put("topology.events", rep.topology.events_applied);
    put("topology.islands_max", rep.topology.num_islands);
    put("topology.masked_measurements",
        static_cast<double>(rep.topology.masked_measurements));
    put("topology.anchors_added",
        static_cast<double>(rep.topology.anchors_added));
    put("topology.repartitions", rep.topology.repartitioned ? 1.0 : 0.0);
    put("topology.apply_ms", d.span_ms("topology.apply_cycle"));
    put("topology.repartition_ms", d.span_ms("topology.repartition"));
    put("graph.partition_ms", d.span_ms("partition.run"));

    put("mapping.map_ms", d.span_ms("mapping.map_before_step1") +
                              d.span_ms("mapping.map_before_step2"));
    put("mapping.load_imbalance", rep.map_step1.partition.load_imbalance);
    put("mapping.redistributed_subsystems",
        static_cast<double>(rep.redistribution.moves.size()));

    put("dse.step1_ms", 1e3 * rep.dse.step1_seconds);
    put("dse.exchange_ms", 1e3 * rep.dse.exchange_seconds);
    put("dse.step2_ms", 1e3 * rep.dse.step2_seconds);
    put("dse.combine_ms", 1e3 * rep.dse.combine_seconds);
    put("dse.total_ms", 1e3 * rep.dse.total_seconds);
    put("core.outside_dse_ms", run_cycle_ms - 1e3 * rep.dse.total_seconds);
    const obs::Histogram& step1 = obs::MetricsRegistry::global().histogram(
        "dse.step1.subsystem_seconds");
    put("dse.step1_straggler_ratio",
        step1.count() > 0 && step1.sum() > 0.0
            ? step1.max() * static_cast<double>(step1.count()) / step1.sum()
            : 0.0);

    put("estimation.wls_ms",
        d.span_ms("wls.estimate") + d.span_ms("wls.batched_estimate"));
    put("estimation.gn_iters_per_frame",
        d.hist_sum("wls.gauss_newton_iterations"));
    put("sparse.pcg_iters_per_frame", d.hist_sum("wls.pcg.iterations"));
    put("solver.plan_hits", d.counter("solver.plan.hits"));
    put("solver.plan_misses_per_frame", d.counter("solver.plan.misses"));

    put("exchange.bytes_per_frame", d.counter("dse.redistribute.bytes") +
                                        d.counter("dse.pseudo.bytes") +
                                        d.counter("dse.combine.bytes"));
    put("exchange.messages_per_frame", d.counter("dse.redistribute.messages") +
                                           d.counter("dse.pseudo.messages") +
                                           d.counter("dse.combine.messages"));
    put("exchange.fanin_wait_ms",
        1e3 * d.hist_sum("exchange.fanin_wait_seconds"));
    put("medici.relay_bytes_per_frame", d.counter("medici.relay.bytes"));
    put("medici.relay_forward_ms", d.span_ms("medici.relay.forward"));
    put("runtime.mailbox_wait_ms",
        1e3 * d.hist_sum("runtime.mailbox.wait_seconds"));
    put("transport.tcp_sockets_per_frame",
        opens_before_ >= 0.0 && opens_after >= 0.0
            ? opens_after - opens_before_
            : 0.0);
  }

 private:
  /// The truth solve run_cycle performed this frame, repeated on the same
  /// network, switching state and load level.
  double shadow_truth_ms(std::int64_t index, double time_sec) {
    SpanRecorder::Scope span(rec_, "grid.truth", index);
    if (w_.replay) {
      const grid::IslandReport islands = sys_.live_topology()->islands();
      const Timer timer;
      (void)grid::solve_dc_power_flow_islands(sys_.network(), islands);
      return timer.millis();
    }
    grid::Network scaled = sys_.network();
    if (w_.load_profile) scaled.scale_loads(diurnal_load(time_sec));
    const Timer timer;
    if (w_.truth == core::TruthMode::kAcPowerFlow) {
      (void)grid::solve_power_flow(scaled);
    } else {
      (void)grid::solve_dc_power_flow(scaled);
    }
    return timer.millis();
  }

  double shadow_measure_ms(std::int64_t index, double time_sec) {
    SpanRecorder::Scope span(rec_, "grid.measure", index);
    const Timer timer;
    (void)generator_->generate(sys_.true_state(), shadow_rng_, time_sec);
    return timer.millis();
  }

  const Workload& w_;
  core::DseSystem& sys_;
  SpanRecorder* rec_;
  Rng shadow_rng_;
  std::unique_ptr<grid::MeasurementGenerator> generator_;
  obs::Snapshot before_;
  double opens_before_ = -1.0;
};

/// Run one frame; a frame that throws, does not converge, degrades, or
/// misses truth by more than kMaxVmError has failed.
Frame run_frame(core::DseSystem& sys, double time_sec,
                core::CycleReport& rep, std::vector<std::string>& failures,
                std::int64_t index) {
  Frame f;
  try {
    rep = sys.run_cycle(time_sec);
    f.vm_err = rep.max_vm_error;
    f.vm_rmse = rmse(rep.dse.state.vm, sys.true_state().vm);
    f.angle_rmse = rmse(rep.dse.state.theta, sys.true_state().theta);
    f.ok = rep.dse.all_converged && !rep.dse.degraded_mode() &&
           std::isfinite(rep.max_vm_error) && rep.max_vm_error <= kMaxVmError;
    if (!f.ok) {
      failures.push_back("frame " + std::to_string(index) + ": converged=" +
                         (rep.dse.all_converged ? "1" : "0") + " degraded=" +
                         (rep.dse.degraded_mode() ? "1" : "0") +
                         " max_vm_error=" + std::to_string(rep.max_vm_error));
    }
  } catch (const std::exception& e) {
    failures.push_back("frame " + std::to_string(index) + ": " + e.what());
  }
  return f;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "bench_cycle: unknown workload \"%s\"\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const bool traced = !args.trace_dir.empty();
  SpanRecorder recorder;
  SpanRecorder* rec = traced ? &recorder : nullptr;
  const int setups = args.setups > 0 ? args.setups : (traced ? 1 : w.setups);

  // --- set-up: case, split, construction and the cold first frame, repeated
  // so setup_s is a median. Only the last system is kept for the frames.
  std::vector<double> setup_s;
  std::vector<SetupTimes> setup_times;
  std::vector<std::string> failures;
  std::unique_ptr<core::DseSystem> sys;
  core::CycleReport rep;
  for (int s = 0; s < setups; ++s) {
    sys.reset();
    SpanRecorder::Scope setup_span(rec, "setup", -1);
    SetupTimes times;
    const Timer setup_timer;
    io::GeneratedCase gc = load_partitioned_case(w, times, rec);
    if (traced) {
      // decompose() runs again inside the constructor; this shadow call
      // isolates its share of construction.
      SpanRecorder::Scope span(rec, "decomp.decompose", -1);
      const Timer timer;
      const decomp::Decomposition d =
          decomp::decompose(gc.kase.network, gc.subsystem_of_bus);
      times.decompose_ms = timer.millis();
      span.attr("subsystems", static_cast<double>(d.subsystems.size()));
    }
    {
      SpanRecorder::Scope span(rec, "core.construct", -1);
      const Timer timer;
      core::SystemConfig cfg = system_config(w, args.seed, gc.kase.network);
      sys = std::make_unique<core::DseSystem>(std::move(gc), std::move(cfg));
      times.construct_ms = timer.millis();
    }
    {
      SpanRecorder::Scope span(rec, "core.cold_frame", 0);
      const Timer timer;
      (void)run_frame(*sys, frame_time(args.seed, 0), rep, failures, 0);
      times.cold_frame_ms = timer.millis();
    }
    // With DseSystem construction timed, the traced shadow call is not
    // part of the set-up the user pays.
    setup_s.push_back(setup_timer.seconds() - 1e-3 * times.decompose_ms);
    setup_times.push_back(times);
  }

  std::int64_t index = 1;
  for (; index < w.warmup_frames; ++index) {
    (void)run_frame(*sys, frame_time(args.seed, index), rep, failures, index);
  }

  std::unique_ptr<FrameTracer> tracer;
  if (traced) tracer = std::make_unique<FrameTracer>(w, *sys, args.seed, rec);
  Layers layers;
  std::vector<Frame> frames;
  const double period_s = w.rate_hz > 0.0 ? 1.0 / w.rate_hz : 0.0;
  const auto nproc = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const Clock::time_point start = Clock::now();
  Clock::time_point due = start;
  Clock::time_point last_end = start;
  // A closed loop stops before a frame that would, at the mean frame time so
  // far, end past --seconds, so a 2.5 s frame cannot stretch the run.
  double latency_sum_s = 0.0;
  auto done = [&] {
    const auto n = static_cast<int>(frames.size());
    if (args.frames > 0) return n >= args.frames;
    if (traced && n < w.count_window) return false;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double next_s =
        period_s > 0.0 || n == 0 ? 0.0 : latency_sum_s / n;
    return elapsed + next_s >= args.seconds;
  };
  while (!done()) {
    const double t = frame_time(args.seed, index);
    // Read before the open loop's wait, so the reads do not delay the frame.
    const double stolen_before = stolen_seconds();
    const double cpu_before = process_cpu_seconds();
    if (period_s > 0.0) std::this_thread::sleep_until(due);
    SpanRecorder::Scope frame_span(rec, "frame", index);
    if (tracer) tracer->before_frame();
    const Clock::time_point begin = Clock::now();
    Frame f;
    {
      SpanRecorder::Scope span(rec, "core.run_cycle", index);
      f = run_frame(*sys, t, rep, failures, index);
      span.attr("step1_s", rep.dse.step1_seconds);
      span.attr("exchange_s", rep.dse.exchange_seconds);
      span.attr("step2_s", rep.dse.step2_seconds);
      span.attr("combine_s", rep.dse.combine_seconds);
      span.attr("total_s", rep.dse.total_seconds);
    }
    last_end = Clock::now();
    f.cpu_ms = 1e3 * (process_cpu_seconds() - cpu_before);
    f.interrupted = stolen_seconds() - stolen_before >
                    kMaxStolenShare * nproc *
                        std::chrono::duration<double>(last_end - begin).count();
    // Open loop: latency counts from the frame's due time, so a stall is
    // charged to every frame queued behind it.
    const Clock::time_point from = period_s > 0.0 ? due : begin;
    f.latency_ms =
        std::chrono::duration<double, std::milli>(last_end - from).count();
    f.late_ms = period_s > 0.0
                    ? std::chrono::duration<double, std::milli>(begin - due)
                          .count()
                    : 0.0;
    if (tracer) {
      tracer->after_frame(
          index, t, rep,
          std::chrono::duration<double, std::milli>(last_end - begin).count(),
          layers);
    }
    frames.push_back(f);
    latency_sum_s += 1e-3 * f.latency_ms;
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(period_s));
    ++index;
  }
  const double timed_wall_s =
      std::chrono::duration<double>(last_end - start).count();

  std::map<std::string, double> single;
  if (traced && w.centralized) {
    SpanRecorder::Scope span(rec, "estimation.centralized", index - 1);
    const Timer timer;
    const estimation::WlsResult central = sys->centralized_reference();
    const double ms = timer.millis();
    single["estimation.centralized_ms"] = ms;
    single["dse.speedup_vs_centralized"] =
        rep.dse.total_seconds > 0.0 && central.state.vm.size() > 0
            ? ms / (1e3 * rep.dse.total_seconds)
            : 0.0;
  }

  std::ostringstream o;
  o << "{\n\"schema\": \"gridse-bench-cycle/1\",\n"
    << "\"workload\": " << json_string(w.name) << ",\n"
    << "\"seed\": " << args.seed << ",\n"
    << "\"traced\": " << (traced ? "true" : "false") << ",\n"
    << "\"build\": {\"type\": " << json_string(GRIDSE_BUILD_TYPE)
    << ", \"compiler\": " << json_string(GRIDSE_CXX_COMPILER)
    << ", \"debug_sync\": " << GRIDSE_DEBUG_SYNC << ", \"obs\": " << GRIDSE_OBS
    << ", \"fault\": " << GRIDSE_FAULT << ", \"ndebug\": "
#ifdef NDEBUG
    << "true"
#else
    << "false"
#endif
    << "},\n"
    << "\"solver_threads\": " << w.clusters << ",\n"
    << "\"tail_percentile\": " << json_number(w.tail_percentile) << ",\n"
    << "\"deadline_ms\": " << json_number(w.deadline_ms) << ",\n"
    << "\"count_window\": " << w.count_window << ",\n"
    << "\"setup_s\": " << json_array(setup_s) << ",\n";
  o << "\"setup_layers\": {";
  const std::pair<const char*, double SetupTimes::*> setup_fields[] = {
      {"io.case_ms", &SetupTimes::case_ms},
      {"decomp.partition_buses_ms", &SetupTimes::partition_ms},
      {"decomp.decompose_ms", &SetupTimes::decompose_ms},
      {"core.construct_ms", &SetupTimes::construct_ms},
      {"core.cold_frame_ms", &SetupTimes::cold_frame_ms}};
  for (std::size_t i = 0; i < std::size(setup_fields); ++i) {
    std::vector<double> values;
    for (const SetupTimes& st : setup_times) {
      values.push_back(st.*setup_fields[i].second);
    }
    o << (i == 0 ? "" : ", ") << json_string(setup_fields[i].first) << ": "
      << json_array(values);
  }
  o << "},\n"
    << "\"timed_wall_s\": " << json_number(timed_wall_s) << ",\n"
    << "\"peak_rss_kb\": " << peak_rss_kb() << ",\n";
  const std::pair<const char*, double Frame::*> frame_fields[] = {
      {"latency_ms", &Frame::latency_ms},
      {"late_ms", &Frame::late_ms},
      {"cpu_ms", &Frame::cpu_ms},
      {"vm_err", &Frame::vm_err},
      {"vm_rmse", &Frame::vm_rmse},
      {"angle_rmse", &Frame::angle_rmse}};
  o << "\"frames\": {";
  for (const auto& [name, field] : frame_fields) {
    std::vector<double> values;
    for (const Frame& f : frames) values.push_back(f.*field);
    o << json_string(name) << ": " << json_array(values) << ", ";
  }
  std::vector<double> ok;
  std::vector<double> interrupted;
  for (const Frame& f : frames) {
    ok.push_back(f.ok ? 1.0 : 0.0);
    interrupted.push_back(f.interrupted ? 1.0 : 0.0);
  }
  o << "\"ok\": " << json_array(ok)
    << ", \"interrupted\": " << json_array(interrupted) << "},\n";
  o << "\"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    o << (i == 0 ? "" : ", ") << json_string(failures[i]);
  }
  o << "],\n\"layers\": {";
  bool first = true;
  for (const auto& [name, values] : layers) {
    o << (first ? "\n" : ",\n") << json_string(name) << ": "
      << json_array(values);
    first = false;
  }
  o << "},\n\"single\": {";
  first = true;
  for (const auto& [name, value] : single) {
    o << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  o << "}\n}\n";

  std::ofstream out(args.out);
  out << o.str();
  if (!out) {
    std::fprintf(stderr, "bench_cycle: cannot write %s\n", args.out.c_str());
    return 1;
  }
  if (traced) {
    std::filesystem::create_directories(args.trace_dir);
    recorder.write_json(args.trace_dir + "/spans.json");
  }
  return 0;
}

int usage() {
  std::fputs(
      "usage: bench_cycle --workload NAME --seed N --out FILE\n"
      "                   [--seconds S] [--frames F] [--setups R] "
      "[--trace DIR]\n",
      stderr);
  return 2;
}

}  // namespace
}  // namespace gridse::bench

int main(int argc, char** argv) {
  using gridse::bench::Args;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return gridse::bench::usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--frames") {
        args.frames = std::stoi(value);
      } else if (flag == "--setups") {
        args.setups = std::stoi(value);
      } else if (flag == "--trace") {
        args.trace_dir = value;
      } else if (flag == "--out") {
        args.out = value;
      } else {
        return gridse::bench::usage();
      }
    } catch (const std::exception&) {
      return gridse::bench::usage();
    }
  }
  if (args.workload.empty() || args.out.empty()) {
    return gridse::bench::usage();
  }
  try {
    return gridse::bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_cycle: %s\n", e.what());
    return 1;
  }
}
