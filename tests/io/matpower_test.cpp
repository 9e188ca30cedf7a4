#include "io/matpower.hpp"

#include <gtest/gtest.h>

#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "util/error.hpp"

namespace gridse::io {
namespace {

/// The standard WSCC 9-bus case in MATPOWER format (public data).
const char* kCase9 = R"(
function mpc = case9
mpc.version = '2';
mpc.baseMVA = 100;

%% bus data
%	bus_i	type	Pd	Qd	Gs	Bs	area	Vm	Va	baseKV	zone	Vmax	Vmin
mpc.bus = [
	1	3	0	0	0	0	1	1	0	345	1	1.1	0.9;
	2	2	0	0	0	0	1	1	0	345	1	1.1	0.9;
	3	2	0	0	0	0	1	1	0	345	1	1.1	0.9;
	4	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	5	1	90	30	0	0	1	1	0	345	1	1.1	0.9;
	6	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	7	1	100	35	0	0	1	1	0	345	1	1.1	0.9;
	8	1	0	0	0	0	1	1	0	345	1	1.1	0.9;
	9	1	125	50	0	0	1	1	0	345	1	1.1	0.9;
];

%% generator data
mpc.gen = [
	1	72.3	27.03	300	-300	1.04	100	1	250	10;
	2	163	6.54	300	-300	1.025	100	1	300	10;
	3	85	-10.95	300	-300	1.025	100	1	270	10;
];

%% branch data
mpc.branch = [
	1	4	0	0.0576	0	250	250	250	0	0	1	-360	360;
	4	5	0.017	0.092	0.158	250	250	250	0	0	1	-360	360;
	5	6	0.039	0.17	0.358	150	150	150	0	0	1	-360	360;
	3	6	0	0.0586	0	300	300	300	0	0	1	-360	360;
	6	7	0.0119	0.1008	0.209	150	150	150	0	0	1	-360	360;
	7	8	0.0085	0.072	0.149	250	250	250	0	0	1	-360	360;
	8	2	0	0.0625	0	250	250	250	0	0	1	-360	360;
	8	9	0.032	0.161	0.306	250	250	250	0	0	1	-360	360;
	9	4	0.01	0.085	0.176	250	250	250	0	0	1	-360	360;
];
)";

TEST(Matpower, ParsesCase9) {
  const Case c = parse_matpower(kCase9);
  EXPECT_EQ(c.name, "case9");
  EXPECT_DOUBLE_EQ(c.base_mva, 100.0);
  EXPECT_EQ(c.network.num_buses(), 9);
  EXPECT_EQ(c.network.num_branches(), 9u);
  EXPECT_EQ(c.network.slack_bus(), c.network.index_of(1));
  // gen VG overrides slack/PV setpoints
  EXPECT_DOUBLE_EQ(c.network.bus(c.network.index_of(2)).v_setpoint, 1.025);
  // loads in per unit
  EXPECT_DOUBLE_EQ(c.network.bus(c.network.index_of(5)).p_load, 0.9);
}

TEST(Matpower, Case9PowerFlowIsPhysicallyConsistent) {
  const Case c = parse_matpower(kCase9);
  const grid::PowerFlowResult pf = grid::solve_power_flow(c.network);
  ASSERT_TRUE(pf.converged);
  // PV/slack buses hold their generator setpoints.
  EXPECT_DOUBLE_EQ(pf.state.vm[static_cast<std::size_t>(c.network.index_of(1))],
                   1.04);
  EXPECT_DOUBLE_EQ(pf.state.vm[static_cast<std::size_t>(c.network.index_of(2))],
                   1.025);
  // All voltages inside the case's 0.9..1.1 limits, comfortably.
  for (const double v : pf.state.vm) {
    EXPECT_GT(v, 0.95);
    EXPECT_LT(v, 1.06);
  }
  // The heaviest load (125 MW at bus 9) pulls the lowest voltage.
  double vmin = 2.0;
  grid::BusIndex argmin = -1;
  for (grid::BusIndex b = 0; b < c.network.num_buses(); ++b) {
    if (pf.state.vm[static_cast<std::size_t>(b)] < vmin) {
      vmin = pf.state.vm[static_cast<std::size_t>(b)];
      argmin = b;
    }
  }
  EXPECT_EQ(argmin, c.network.index_of(9));
  // System losses: generation 72.3+163+85 = 320.3 MW vs 315 MW load; the
  // slack re-balances, so recompute losses from the solved injections.
  const auto ybus = grid::build_ybus(c.network);
  const auto [p, q] = grid::bus_injections(ybus, pf.state);
  double loss = 0.0;
  for (const double pi : p) loss += pi;
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 0.10);  // well under 10 MW on a 315 MW system
}

TEST(Matpower, OutOfServiceElementsDropped) {
  std::string text = kCase9;
  // branch 5-6 out of service (column 11 = 0)
  const auto pos = text.find("5	6	0.039	0.17	0.358	150	150	150	0	0	1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("5	6	0.039	0.17	0.358	150	150	150	0	0	1").size(),
               "5	6	0.039	0.17	0.358	150	150	150	0	0	0");
  const Case c = parse_matpower(text);
  EXPECT_EQ(c.network.num_branches(), 8u);
}

TEST(Matpower, OutOfServiceGeneratorIgnored) {
  std::string text = kCase9;
  const auto pos = text.find("3	85	-10.95	300	-300	1.025	100	1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("3	85	-10.95	300	-300	1.025	100	1").size(),
               "3	85	-10.95	300	-300	1.025	100	0");
  const Case c = parse_matpower(text);
  EXPECT_DOUBLE_EQ(c.network.bus(c.network.index_of(3)).p_gen, 0.0);
}

TEST(Matpower, CommentsAndCommasTolerated) {
  const Case c = parse_matpower(R"(
mpc.baseMVA = 100; % the base
mpc.bus = [
  1, 3, 0, 0, 0, 0, 1, 1.0, 0, 100, 1, 1.1, 0.9;  % slack
  2, 1, 10, 2, 0, 0, 1, 1.0, 0, 100, 1, 1.1, 0.9;
];
mpc.gen = [ 1 20 0 99 -99 1.02 100 1 99 0; ];
mpc.branch = [ 1 2 0.01 0.1 0.02 0 0 0 0 0 1 -360 360; ];
)");
  EXPECT_EQ(c.network.num_buses(), 2);
  EXPECT_DOUBLE_EQ(c.network.bus(0).v_setpoint, 1.02);
}

TEST(Matpower, RejectsMalformedInput) {
  EXPECT_THROW(parse_matpower("mpc.bus = [1 3];"), InvalidInput);  // no baseMVA
  EXPECT_THROW(parse_matpower("mpc.baseMVA = 0;\nmpc.bus = [];\n"
                              "mpc.branch = [];"),
               InvalidInput);
  EXPECT_THROW(parse_matpower("mpc.baseMVA = 100;"), InvalidInput);  // no bus
  // isolated bus type 4
  EXPECT_THROW(parse_matpower(R"(
mpc.baseMVA = 100;
mpc.bus = [ 1 4 0 0 0 0 1 1 0 100 1 1.1 0.9; ];
mpc.branch = [];
)"),
               InvalidInput);
  // non-numeric garbage in a matrix
  EXPECT_THROW(parse_matpower(R"(
mpc.baseMVA = 100;
mpc.bus = [ 1 three 0 0 0 0 1 1 0 100 1 1.1 0.9; ];
mpc.branch = [];
)"),
               InvalidInput);
}

TEST(Matpower, MissingFileThrows) {
  EXPECT_THROW(load_matpower_file("/no/such/case.m"), InvalidInput);
}

}  // namespace
}  // namespace gridse::io
