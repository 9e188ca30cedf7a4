#include "core/architecture.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
  DseSystem tcp(io::ieee118_dse(), small_config(Transport::kTcp));
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

TEST(Transport, ParsesNames) {
  EXPECT_EQ(parse_transport("inproc"), Transport::kInproc);
  EXPECT_EQ(parse_transport("tcp"), Transport::kTcp);
  EXPECT_EQ(parse_transport("medici"), Transport::kMedici);
  EXPECT_EQ(parse_transport("direct"), Transport::kMediciDirect);
  EXPECT_THROW(parse_transport("udp"), InvalidInput);
}

}  // namespace
}  // namespace gridse::core
