#include "grid/powerflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "grid/topology.hpp"
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

// A run cut by its budget reports the state it returns: the Newton
// updates that state has had, and that state's own largest mismatch.
TEST(PowerFlow, IterationBudgetRespected) {
  const auto c = io::ieee14();
  PowerFlowOptions opts;
  opts.max_iterations = 1;
  opts.tolerance = 1e-14;
  const PowerFlowResult r = solve_power_flow(c.network, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);

  const auto ybus = build_ybus(c.network);
  const auto [p, q] = bus_injections(ybus, r.state);
  double max_mismatch = 0.0;
  for (BusIndex i = 0; i < c.network.num_buses(); ++i) {
    const Bus& b = c.network.bus(i);
    const auto [ps, qs] = c.network.scheduled_injection(i);
    if (b.type != BusType::kSlack) {
      max_mismatch = std::max(max_mismatch,
                              std::abs(ps - p[static_cast<std::size_t>(i)]));
    }
    if (b.type == BusType::kPQ) {
      max_mismatch = std::max(max_mismatch,
                              std::abs(qs - q[static_cast<std::size_t>(i)]));
    }
  }
  // The solver's h(x) sums the injections in polar form, bus_injections
  // takes the phasor product: the two agree to rounding.
  EXPECT_NEAR(r.max_mismatch, max_mismatch, 1e-12 * max_mismatch);
  EXPECT_GT(r.max_mismatch, 1e-3);
}

/// A power-flow solution pinned by checksums over all buses and eight
/// samples at buses k·n/8, to 1e-10 per bus, with its Newton count.
struct PowerFlowGolden {
  int iterations;
  double sum_theta;
  double sum_vm;
  double weighted_theta;  ///< sum over buses of (bus + 1) * theta
  double weighted_vm;
  std::vector<std::pair<double, double>> samples;  ///< {theta, vm}
};

void expect_power_flow_golden(const PowerFlowResult& r,
                              const PowerFlowGolden& g) {
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, g.iterations);
  const GridState& s = r.state;
  double sum_theta = 0.0;
  double sum_vm = 0.0;
  double weighted_theta = 0.0;
  double weighted_vm = 0.0;
  for (std::size_t i = 0; i < s.theta.size(); ++i) {
    const auto w = static_cast<double>(i + 1);
    sum_theta += s.theta[i];
    sum_vm += s.vm[i];
    weighted_theta += w * s.theta[i];
    weighted_vm += w * s.vm[i];
  }
  const std::size_t n = s.theta.size();
  const auto nd = static_cast<double>(n);
  EXPECT_NEAR(sum_theta, g.sum_theta, nd * 1e-10);
  EXPECT_NEAR(sum_vm, g.sum_vm, nd * 1e-10);
  EXPECT_NEAR(weighted_theta, g.weighted_theta, nd * (nd + 1) / 2 * 1e-10);
  EXPECT_NEAR(weighted_vm, g.weighted_vm, nd * (nd + 1) / 2 * 1e-10);
  ASSERT_EQ(g.samples.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(s.theta[k * n / 8], g.samples[k].first, 1e-10) << k;
    EXPECT_NEAR(s.vm[k * n / 8], g.samples[k].second, 1e-10) << k;
  }
}

// The solutions and Newton counts of the full-Newton solve with a dense LU
// of the Jacobian, which the Newton–Krylov solve replaced: preconditioned
// GMRES must land on the same states in the same number of steps.
TEST(PowerFlow, MatchesDenseNewtonGoldens) {
  expect_power_flow_golden(
      solve_power_flow(io::ieee14().network),
      {4,
       -2.9465797284805224,
       14.678627332858214,
       -25.647744081108023,
       110.37273715846108,
       {{0, 1.0600000000000001},
        {-0.086962585801583198, 1.0449999999999999},
        {-0.17999407949370577, 1.0176708536917651},
        {-0.24820233854144544, 1.0700000000000001},
        {-0.23316948436482837, 1.0900000000000001},
        {-0.26072638198103454, 1.0559317206369718},
        {-0.25814505286457351, 1.0569065185403654},
        {-0.26452692440917658, 1.0503817136285951}}});
  const std::pair<std::uint64_t, PowerFlowGolden> ieee118[] = {
      {1,
       {4,
        -3.8526985474642541,
        120.45071956925874,
        -249.94481098120161,
        7176.7790261407245,
        {{0, 1.04},
         {-0.038745965798544876, 1.0138711413736479},
         {-0.025423154665096023, 1.0055776654225157},
         {0.027157657141676964, 1.0288016087720382},
         {-0.057117748463669682, 1.0202563844868124},
         {-0.01315438699598831, 1.0413040343597018},
         {-0.054911901195569331, 1.0222848305460777},
         {-0.028683960431476602, 1.0316007834459593}}}},
      {7,
       {4,
        -3.8579354243604542,
        120.4022926538572,
        -301.6220104076337,
        7147.834036085138,
        {{0, 1.04},
         {-0.026550052274522465, 1.0173131234655752},
         {-0.038894397068927548, 1.0174562142564172},
         {-0.016212490797129931, 1.0097403344821931},
         {-0.038179636654888542, 1.0307514491786531},
         {0.0018316345746034594, 1.0119226900835419},
         {-0.078911363843871846, 1.0163996059671778},
         {-0.067336425196439773, 1.0020952810771055}}}},
      {2012,
       {4,
        -11.282646480968992,
        120.27269596133345,
        -708.95231970764314,
        7157.4518931147541,
        {{0, 1.04},
         {-0.10756166216370203, 1.0326882747044948},
         {-0.11582323483748964, 1.0158256517729816},
         {-0.078700283271894711, 1.023633277959795},
         {-0.096994746612471733, 1.0137108812574755},
         {-0.13270286743865126, 1.0105593558160451},
         {-0.12641580004439082, 1.0007814099635171},
         {-0.13087851458383767, 1.0055458894119642}}}},
      {99,
       {4,
        -5.1751867841013794,
        120.43525792365485,
        -326.84112898754393,
        7163.3026603579347,
        {{0, 1.04},
         {-0.044585454268702099, 1.0201383906905317},
         {0.072034228034748335, 1.0201704265271407},
         {-0.030876019364198086, 1.0387424422671718},
         {-0.049134393361637205, 1.0198282216611432},
         {-0.039908268987370078, 1.0385890009265815},
         {-0.063362708384435112, 1.0164588436695212},
         {-0.023571379768667231, 1.0230244810400884}}}},
  };
  for (const auto& [seed, golden] : ieee118) {
    SCOPED_TRACE(seed);
    expect_power_flow_golden(
        solve_power_flow(io::ieee118_dse(seed).kase.network), golden);
  }
  expect_power_flow_golden(
      solve_power_flow(io::wecc37().kase.network),
      {5,
       -420.1138455252277,
       578.49258352180914,
       -122889.6139675888,
       165725.41556257079,
       {{0, 1.04},
        {-0.76158796518490945, 1.0158291591115978},
        {-0.92425244884509994, 0.99256437540092846},
        {-0.893048851803251, 1.0004288057944093},
        {-0.93571078312424871, 0.97652178610351625},
        {-0.66568008150117064, 1.0074429133537735},
        {-0.95355243938120593, 1.0105596749016346},
        {-0.82867397927799324, 1.0114562434049341}}});
}

// A slot keeps B′ and B″ while Ybus is unchanged: a moved load reuses both
// factors, and the state equals a slot-less solve bit for bit. Switching a
// branch out changes Ybus, so both refactor (over their kept plans: the
// pattern keeps the open branch as explicit zeros).
TEST(PowerFlow, SlotRefactorsOnlyWhenYbusChanges) {
  const auto g = io::ieee118_dse(7);
  Network net = g.kase.network;
  PowerFlowFactors slot;
  const PowerFlowResult first = solve_power_flow(net, slot);
  ASSERT_TRUE(first.converged);
  EXPECT_EQ(slot.bprime().factorizations(), 1u);
  EXPECT_EQ(slot.bdoubleprime().factorizations(), 1u);
  EXPECT_GT(slot.gmres_iterations(), 0u);
  const auto plan_p = slot.bprime().plan();
  const auto plan_pp = slot.bdoubleprime().plan();

  net.scale_loads(1.05);
  const PowerFlowResult loaded = solve_power_flow(net, slot);
  ASSERT_TRUE(loaded.converged);
  EXPECT_EQ(slot.bprime().factorizations(), 1u);
  EXPECT_EQ(slot.bdoubleprime().factorizations(), 1u);
  const PowerFlowResult fresh = solve_power_flow(net);
  EXPECT_EQ(loaded.iterations, fresh.iterations);
  EXPECT_EQ(loaded.state.theta, fresh.state.theta);
  EXPECT_EQ(loaded.state.vm, fresh.state.vm);

  // A branch whose outage leaves the grid connected.
  const std::size_t none = net.num_branches();
  std::size_t open = none;
  for (std::size_t bi = 0; bi < net.num_branches() && open == none; ++bi) {
    net.set_branch_in_service(bi, false);
    if (find_islands(net).num_islands == 1) {
      open = bi;
    } else {
      net.set_branch_in_service(bi, true);
    }
  }
  ASSERT_LT(open, none);
  const PowerFlowResult switched = solve_power_flow(net, slot);
  ASSERT_TRUE(switched.converged);
  EXPECT_EQ(slot.bprime().factorizations(), 2u);
  EXPECT_EQ(slot.bdoubleprime().factorizations(), 2u);
  EXPECT_EQ(slot.bprime().plan(), plan_p);
  EXPECT_EQ(slot.bdoubleprime().plan(), plan_pp);
  EXPECT_LT(switched.max_mismatch, 1e-10);
}

}  // namespace
}  // namespace gridse::grid
