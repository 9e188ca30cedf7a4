#include "core/architecture.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "fault/topology_replay.hpp"
#include "obs/metrics.hpp"
#include "state_golden.hpp"

namespace gridse::core {
namespace {

SystemConfig small_config(Transport transport = Transport::kInproc) {
  SystemConfig cfg;
  cfg.mapping.num_clusters = 3;
  cfg.transport = transport;
  return cfg;
}

TEST(DseSystem, FullCycleOnIeee118) {
  DseSystem sys(io::ieee118_dse(), small_config());
  const CycleReport rep = sys.run_cycle(0.0);
  EXPECT_TRUE(rep.dse.all_converged);
  EXPECT_LT(rep.max_vm_error, 0.02);
  EXPECT_LT(rep.max_angle_error, 0.02);
  EXPECT_LE(rep.map_step1.partition.load_imbalance, 1.05 + 1e-9);
}

// Each rank traces its own subsystems; the report merges all of them, so a
// 3-cluster cycle reports all 9 with both steps' info. (A subsystem whose
// two steps run on different ranks: RemapTracesBothHostsOfAMovedSubsystem.)
TEST(DseSystem, ReportTracesEverySubsystemOfEveryRank) {
  DseSystem sys(io::ieee118_dse(), small_config());
  const CycleReport rep = sys.run_cycle(0.0);
  ASSERT_TRUE(rep.dse.all_converged);
  ASSERT_EQ(rep.dse.traces.size(), 9u);
  for (std::size_t s = 0; s < rep.dse.traces.size(); ++s) {
    const SubsystemTrace& t = rep.dse.traces[s];
    EXPECT_EQ(t.subsystem, static_cast<int>(s));
    EXPECT_EQ(t.step1_rank, rep.map_step1.partition.assignment[s]) << s;
    EXPECT_EQ(t.step2_rank, rep.map_step2.partition.assignment[s]) << s;
    EXPECT_GT(t.step1.gauss_newton_iterations, 0) << s;
    EXPECT_GT(t.step2.gauss_newton_iterations, 0) << s;
  }
}

TEST(DseSystem, RepeatedCyclesRemapAdaptively) {
  DseSystem sys(io::ieee118_dse(), small_config());
  CycleReport first = sys.run_cycle(0.0);
  CycleReport second = sys.run_cycle(60.0);
  EXPECT_TRUE(second.dse.all_converged);
  // Noise differs across frames, so the weight model must produce different
  // vertex weights.
  EXPECT_NE(first.map_step1.noise_level, second.map_step1.noise_level);
}

TEST(DseSystem, CyclesAreDeterministicGivenSeed) {
  DseSystem a(io::ieee118_dse(), small_config());
  DseSystem b(io::ieee118_dse(), small_config());
  const CycleReport ra = a.run_cycle(0.0);
  const CycleReport rb = b.run_cycle(0.0);
  EXPECT_DOUBLE_EQ(grid::max_vm_error(ra.dse.state, rb.dse.state), 0.0);
}

TEST(DseSystem, CentralizedReferenceAvailableAfterCycle) {
  DseSystem sys(io::ieee118_dse(), small_config());
  EXPECT_THROW(sys.centralized_reference(), InternalError);
  sys.run_cycle(0.0);
  const estimation::WlsResult central = sys.centralized_reference();
  EXPECT_TRUE(central.converged);
}

TEST(DseSystem, SmallerSystemsAndDifferentClusterCounts) {
  SystemConfig cfg;
  cfg.mapping.num_clusters = 2;
  DseSystem sys(io::generate_synthetic(io::make_ring_spec(4, 10, 1)), cfg);
  const CycleReport rep = sys.run_cycle(0.0);
  EXPECT_TRUE(rep.dse.all_converged);
  EXPECT_LT(rep.max_vm_error, 0.03);
}

TEST(DseSystem, TcpTransportProducesSameEstimateAsInproc) {
  DseSystem inproc(io::ieee118_dse(), small_config(Transport::kInproc));
  DseSystem tcp(io::ieee118_dse(), small_config(Transport::kMediciDirect));
  const CycleReport a = inproc.run_cycle(0.0);
  const CycleReport b = tcp.run_cycle(0.0);
  EXPECT_LT(grid::max_vm_error(a.dse.state, b.dse.state), 1e-12);
}

TEST(DseSystem, LoadProfileMovesTheOperatingPoint) {
  SystemConfig cfg = small_config();
  cfg.load_profile = [](double t) {
    return 1.0 + 0.12 * std::sin(t / 200.0);  // gentle diurnal swing
  };
  DseSystem sys(io::ieee118_dse(), cfg);

  const CycleReport base = sys.run_cycle(0.0);  // factor 1.0
  const grid::GridState truth0 = sys.true_state();
  const CycleReport peak = sys.run_cycle(314.0);  // factor ~1.12
  const grid::GridState truth1 = sys.true_state();

  // The true state must have moved between the frames...
  EXPECT_GT(grid::max_angle_error(truth0, truth1), 1e-3);
  // ...and the DSE must track both operating points.
  EXPECT_TRUE(base.dse.all_converged);
  EXPECT_TRUE(peak.dse.all_converged);
  EXPECT_LT(base.max_vm_error, 0.02);
  EXPECT_LT(peak.max_vm_error, 0.02);
}

TEST(DseSystem, InfeasibleLoadProfileDiagnosed) {
  SystemConfig cfg = small_config();
  cfg.load_profile = [](double) { return 50.0; };  // collapse-level loading
  DseSystem sys(io::ieee118_dse(), cfg);
  EXPECT_THROW(sys.run_cycle(0.0), Error);
}

TEST(DseSystem, MediciTransportWorksEndToEnd) {
  DseSystem sys(io::ieee118_dse(), small_config(Transport::kMedici));
  const CycleReport rep = sys.run_cycle(0.0);
  EXPECT_TRUE(rep.dse.all_converged);
  EXPECT_LT(rep.max_vm_error, 0.02);
}

// Pins the fixed anchor sigma, the single truth path (island-aware DC
// truth on a load-scaled network) and the Step-2 constants through three
// replay cycles with a diurnal load.
TEST(DseSystem, GoldenReplayWithDiurnalLoad) {
  const io::GeneratedCase gc = io::ieee118_dse();
  SystemConfig cfg = small_config();
  cfg.truth_mode = TruthMode::kDcLinearized;
  cfg.topology.plan =
      fault::TopologyReplayPlan::generate(gc.kase.network, 5).to_json();
  cfg.load_profile = [](double t) {
    return 1.0 + 0.1 * std::sin(2.0 * M_PI * t / 86400.0);
  };
  DseSystem sys(io::ieee118_dse(), cfg);
  const std::size_t masked[] = {0, 4, 8};
  const std::size_t anchors[] = {0, 1, 1};
  CycleReport rep;
  for (int c = 0; c < 3; ++c) {
    rep = sys.run_cycle(c * 3600.0);
    EXPECT_TRUE(rep.dse.all_converged) << c;
    EXPECT_EQ(rep.topology.masked_measurements, masked[c]) << c;
    EXPECT_EQ(rep.topology.anchors_added, anchors[c]) << c;
  }
  expect_state_golden(sys.true_state(),
                      {-11.133295824449387,
                       118.47869087601498,
                       -683.19277547272975,
                       7049.4317317388586,
                       {{0, 1.04},
                        {-0.10952772365046422, 0.98513512522029267},
                        {-0.14321718077952164, 1.0190013765381469},
                        {-0.094866869258606656, 0.99109993733401602},
                        {-0.099585349172375937, 1.0114147644603355},
                        {-0.10914989705878374, 0.98818910047864261},
                        {-0.11334688475324359, 0.98932335183885856},
                        {-0.063967845129426215, 0.99752321552693057}}});
  // Cycles 1 and 2 start Step 1 from the previous estimate, except in the
  // subsystems the replay switched.
  expect_state_golden(rep.dse.state,
                      {-11.14647946342418,
                       118.38170897440159,
                       -688.82276884515602,
                       7039.9728655320969,
                       {{0, 1.0408563477854749},
                        {-0.10962505415882831, 0.98700358171540825},
                        {-0.14401448688722665, 1.0172242561640941},
                        {-0.096460877211917137, 0.98932749777209761},
                        {-0.10093560321563076, 1.0103038674340374},
                        {-0.10851189090498452, 0.98789611205842287},
                        {-0.11314860021742769, 0.98621373862644901},
                        {-0.06653883064694581, 0.99617406348286364}}});
}

// A diurnal load moves only the injections P, never B′, so the DC truth
// analyzes and factors B′ once, at construction, and every frame after that
// reuses the factor. The truth so computed equals a fresh solve without the
// slot.
TEST(DseSystem, DcTruthReusesOneBprimePlanAcrossFrames) {
  SystemConfig cfg = small_config();
  cfg.truth_mode = TruthMode::kDcLinearized;
  cfg.load_profile = [](double t) {
    return 1.0 + 0.1 * std::sin(2.0 * M_PI * t / 86400.0);
  };
  DseSystem sys(io::ieee118_dse(), cfg);
  const std::shared_ptr<const sparse::SymbolicPlan> plan = sys.truth_bprime().plan();
  ASSERT_NE(plan, nullptr);
  for (int c = 0; c < 3; ++c) {
    const double t = c * 3600.0;
    EXPECT_TRUE(sys.run_cycle(t).dse.all_converged) << c;
    EXPECT_EQ(sys.truth_bprime().plan(), plan) << c;
    // Loads move B′'s right-hand side only: the construction's factor
    // serves every frame.
    EXPECT_EQ(sys.truth_bprime().factorizations(), 1u) << c;

    grid::Network scaled = sys.network();
    scaled.scale_loads(cfg.load_profile(t));
    const std::vector<double> fresh = grid::solve_dc_power_flow(scaled);
    ASSERT_EQ(sys.true_state().theta.size(), fresh.size());
    for (std::size_t b = 0; b < fresh.size(); ++b) {
      EXPECT_NEAR(sys.true_state().theta[b], fresh[b], 1e-12)
          << c << " bus " << b;
    }
  }
}

// The AC truth's slot, likewise: a diurnal load leaves Ybus, and with it
// B′ and B″, unchanged, so each is factored once, at construction, and every
// frame's Newton–Krylov solve reuses both factors. Each frame's truth equals
// a slot-less solve of the frame's scaled network.
TEST(DseSystem, AcTruthFactorsBprimeAndBdoubleprimeOnce) {
  SystemConfig cfg = small_config();
  cfg.load_profile = [](double t) {
    return 1.0 + 0.1 * std::sin(2.0 * M_PI * t / 86400.0);
  };
  DseSystem sys(io::ieee118_dse(), cfg);
  EXPECT_EQ(sys.truth_bprime().plan(), nullptr);
  for (int c = 0; c < 5; ++c) {
    const double t = c * 3600.0;
    EXPECT_TRUE(sys.run_cycle(t).dse.all_converged) << c;
    EXPECT_EQ(sys.truth_decoupled().bprime().factorizations(), 1u) << c;
    EXPECT_EQ(sys.truth_decoupled().bdoubleprime().factorizations(), 1u) << c;

    grid::Network scaled = sys.network();
    scaled.scale_loads(cfg.load_profile(t));
    const grid::PowerFlowResult fresh = grid::solve_power_flow(scaled);
    ASSERT_TRUE(fresh.converged);
    EXPECT_EQ(sys.true_state().theta, fresh.state.theta) << c;
    EXPECT_EQ(sys.true_state().vm, fresh.state.vm) << c;
  }
}

// The environment beats the configured SLO: a 60 s configured cycle
// deadline overridden by GRIDSE_CYCLE_DEADLINE_MS=1 is missed every cycle.
TEST(DseSystem, CycleDeadlineEnvBeatsConfiguredSlo) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "SLO counters need GRIDSE_OBS";
  }
  // Four Step-2 rounds over MeDICi relays keep a cycle well above the 1 ms
  // deadline; one in-process tracking cycle can finish inside it on an idle
  // host.
  SystemConfig cfg = small_config(Transport::kMedici);
  cfg.dse.step2_rounds = 4;
  cfg.dse.slo.cycle_deadline = std::chrono::milliseconds{60'000};
  ::setenv("GRIDSE_CYCLE_DEADLINE_MS", "1", 1);
  DseSystem sys(io::ieee118_dse(), cfg);
  ::unsetenv("GRIDSE_CYCLE_DEADLINE_MS");
  obs::Counter& missed =
      obs::MetricsRegistry::global().counter("slo.cycle_deadline_missed");
  for (int c = 0; c < 2; ++c) {
    const std::uint64_t before = missed.value();
    const CycleReport rep = sys.run_cycle(c * 60.0);
    ASSERT_GT(rep.dse.total_seconds, 0.001) << "cycle " << c;
    EXPECT_EQ(missed.value() - before, 1u) << "cycle " << c;
  }
}

TEST(Transport, ParsesNames) {
  EXPECT_EQ(parse_transport("inproc"), Transport::kInproc);
  EXPECT_EQ(parse_transport("medici"), Transport::kMedici);
  EXPECT_EQ(parse_transport("direct"), Transport::kMediciDirect);
  EXPECT_THROW(parse_transport("udp"), InvalidInput);
  EXPECT_THROW(parse_transport("tcp"), InvalidInput);
}

}  // namespace
}  // namespace gridse::core
