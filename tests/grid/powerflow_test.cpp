#include "grid/powerflow.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "io/case14.hpp"
#include "io/synthetic.hpp"

namespace gridse::grid {
namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

TEST(PowerFlow, Ieee14MatchesPublishedSolution) {
  // Reference values from the published IEEE 14-bus solution (MATPOWER).
  const auto c = io::ieee14();
  const PowerFlowResult r = solve_power_flow(c.network);
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 6);

  const auto vm = [&](int bus) {
    return r.state.vm[static_cast<std::size_t>(c.network.index_of(bus))];
  };
  const auto th = [&](int bus) {
    return r.state.theta[static_cast<std::size_t>(c.network.index_of(bus))];
  };
  EXPECT_NEAR(vm(1), 1.060, 1e-3);
  EXPECT_NEAR(vm(2), 1.045, 1e-3);
  EXPECT_NEAR(vm(3), 1.010, 1e-3);
  EXPECT_NEAR(vm(4), 1.018, 2e-3);
  EXPECT_NEAR(vm(9), 1.056, 2e-3);
  EXPECT_NEAR(vm(14), 1.036, 2e-3);
  EXPECT_NEAR(th(2), -4.98 * kDeg, 0.05 * kDeg);
  EXPECT_NEAR(th(3), -12.73 * kDeg, 0.05 * kDeg);
  EXPECT_NEAR(th(14), -16.04 * kDeg, 0.1 * kDeg);
}

TEST(PowerFlow, MismatchIsTinyAtSolution) {
  const auto c = io::ieee14();
  const PowerFlowResult r = solve_power_flow(c.network);
  ASSERT_TRUE(r.converged);
  const auto ybus = build_ybus(c.network);
  const auto [p, q] = bus_injections(ybus, r.state);
  for (BusIndex i = 0; i < c.network.num_buses(); ++i) {
    const Bus& b = c.network.bus(i);
    const auto [ps, qs] = c.network.scheduled_injection(i);
    if (b.type != BusType::kSlack) {
      EXPECT_NEAR(p[static_cast<std::size_t>(i)], ps, 1e-8) << "bus " << i;
    }
    if (b.type == BusType::kPQ) {
      EXPECT_NEAR(q[static_cast<std::size_t>(i)], qs, 1e-8) << "bus " << i;
    }
  }
}

// A diverging Newton iterate can carry |V| < 0. The phasor is then
// vm·(cos θ, sin θ), and negating every magnitude negates every phasor,
// which leaves each S = V·conj(YV) unchanged.
TEST(PowerFlow, InjectionsAcceptNegativeMagnitudes) {
  const std::complex<double> v = phasor(-0.5, 0.3);
  EXPECT_EQ(v.real(), -0.5 * std::cos(0.3));
  EXPECT_EQ(v.imag(), -0.5 * std::sin(0.3));

  const auto c = io::ieee14();
  const PowerFlowResult r = solve_power_flow(c.network);
  ASSERT_TRUE(r.converged);
  GridState negated = r.state;
  for (double& vm : negated.vm) vm = -vm;
  const auto ybus = build_ybus(c.network);
  const auto [p, q] = bus_injections(ybus, r.state);
  const auto [pn, qn] = bus_injections(ybus, negated);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(pn[i], p[i], 1e-12) << "bus " << i;
    EXPECT_NEAR(qn[i], q[i], 1e-12) << "bus " << i;
  }
}

TEST(PowerFlow, PvBusesHoldSetpointVoltage) {
  const auto c = io::ieee14();
  const PowerFlowResult r = solve_power_flow(c.network);
  ASSERT_TRUE(r.converged);
  for (BusIndex i = 0; i < c.network.num_buses(); ++i) {
    const Bus& b = c.network.bus(i);
    if (b.type != BusType::kPQ) {
      EXPECT_DOUBLE_EQ(r.state.vm[static_cast<std::size_t>(i)], b.v_setpoint);
    }
  }
}

TEST(PowerFlow, SlackAbsorbsSystemBalance) {
  const auto c = io::ieee14();
  const PowerFlowResult r = solve_power_flow(c.network);
  const auto ybus = build_ybus(c.network);
  const auto [p, q] = bus_injections(ybus, r.state);
  // Slack injection covers total load minus other generation plus losses:
  // it must exceed that floor and stay within a few percent of it.
  double total_load = 0.0;
  double other_gen = 0.0;
  for (BusIndex i = 0; i < c.network.num_buses(); ++i) {
    total_load += c.network.bus(i).p_load;
    if (i != c.network.slack_bus()) other_gen += c.network.bus(i).p_gen;
  }
  const double slack_p = p[static_cast<std::size_t>(c.network.slack_bus())];
  EXPECT_GT(slack_p, total_load - other_gen);
  EXPECT_LT(slack_p, (total_load - other_gen) * 1.10);
}

TEST(PowerFlow, TwoBusAnalyticSolution) {
  // P = V1 V2 sin(d) / X for a lossless line: check against closed form.
  Network n;
  Bus slack;
  slack.external_id = 1;
  slack.type = BusType::kSlack;
  slack.v_setpoint = 1.0;
  n.add_bus(slack);
  Bus load;
  load.external_id = 2;
  load.p_load = 0.2;
  load.q_load = 0.0;
  n.add_bus(load);
  Branch b;
  b.from = 0;
  b.to = 1;
  b.x = 0.1;
  n.add_branch(b);
  const PowerFlowResult r = solve_power_flow(n);
  ASSERT_TRUE(r.converged);
  const double v2 = r.state.vm[1];
  const double d = r.state.theta[0] - r.state.theta[1];
  EXPECT_NEAR(1.0 * v2 * std::sin(d) / 0.1, 0.2, 1e-8);
}

TEST(PowerFlow, SyntheticCasesConverge) {
  for (const std::uint64_t seed : {1ull, 7ull, 2012ull, 99ull}) {
    const auto g = io::ieee118_dse(seed);
    const PowerFlowResult r = solve_power_flow(g.kase.network);
    EXPECT_TRUE(r.converged) << "seed " << seed;
    EXPECT_LE(r.iterations, 10);
    for (const double v : r.state.vm) {
      EXPECT_GT(v, 0.8);
      EXPECT_LT(v, 1.15);
    }
  }
}

TEST(PowerFlow, IterationBudgetRespected) {
  const auto c = io::ieee14();
  PowerFlowOptions opts;
  opts.max_iterations = 1;
  opts.tolerance = 1e-14;
  const PowerFlowResult r = solve_power_flow(c.network, opts);
  EXPECT_FALSE(r.converged);
}

}  // namespace
}  // namespace gridse::grid
