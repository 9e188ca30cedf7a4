#include "grid/meas_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "decomp/decomposition.hpp"
#include "decomp/subsystem_model.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "io/synthetic.hpp"
#include "util/rng.hpp"

namespace gridse::grid {
namespace {

/// Central finite differences of h over every state column must match the
/// analytic Jacobian entry by entry, to within the absolute bound `tol`.
/// An entry missing from the pattern reads 0 and so fails wherever the
/// derivative is not.
void expect_jacobian_matches_fd(const MeasurementModel& model,
                                const MeasurementSet& set,
                                const GridState& state, double tol,
                                const std::string& what) {
  const StateIndex& index = model.state_index();
  const sparse::Csr jac = model.jacobian(set, state);
  ASSERT_EQ(jac.rows(), static_cast<sparse::Index>(set.size()));
  ASSERT_EQ(jac.cols(), index.size());
  // One compiled kernel serves every perturbed state.
  const MeasurementKernel h_of(model, set);
  const double ref_angle =
      state.theta[static_cast<std::size_t>(index.reference_bus())];
  const double eps = 1e-6;
  const std::vector<double> x = index.pack(state);
  std::vector<double> hp(set.size());
  std::vector<double> hm(set.size());
  int failures = 0;
  for (std::int32_t col = 0; col < index.size(); ++col) {
    std::vector<double> xp = x;
    std::vector<double> xm = x;
    xp[static_cast<std::size_t>(col)] += eps;
    xm[static_cast<std::size_t>(col)] -= eps;
    h_of.evaluate(index.unpack(xp, ref_angle), hp);
    h_of.evaluate(index.unpack(xm, ref_angle), hm);
    for (std::size_t row = 0; row < set.size() && failures < 10; ++row) {
      const double fd = (hp[row] - hm[row]) / (2.0 * eps);
      const double an = jac.value_at(static_cast<sparse::Index>(row), col);
      if (std::abs(an - fd) > tol) {
        ++failures;
        ADD_FAILURE() << what << ": " << meas_type_name(set.items[row].type)
                      << " row " << row << " col " << col << " analytic "
                      << an << " fd " << fd;
      }
    }
  }
}

/// Same (row, column) pattern.
void expect_same_pattern(const sparse::Csr& a, const sparse::Csr& b) {
  ASSERT_EQ(a.rows(), b.rows());
  EXPECT_TRUE(std::ranges::equal(a.row_ptr(), b.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(a.col_idx(), b.col_idx()));
}

/// Property test: the analytic Jacobian must match central finite
/// differences of h(x) at a realistic operating point, for every
/// measurement type. This is the strongest single check of the whole
/// measurement model. At a flat start too: there ieee14's r = 0
/// transformers make some sensitivities exactly zero, which stay explicit
/// entries, so the pattern is the operating point's.
TEST(MeasModel, JacobianMatchesFiniteDifferences) {
  const auto c = io::ieee14();
  const PowerFlowResult pf = solve_power_flow(c.network);
  ASSERT_TRUE(pf.converged);

  MeasurementPlan plan;
  plan.pmu_coverage = 0.25;
  const MeasurementGenerator gen(c.network, plan);
  const MeasurementSet set = gen.generate_noiseless(pf.state);

  const StateIndex index(c.network.num_buses(), c.network.slack_bus());
  const MeasurementModel model(c.network, index);
  expect_jacobian_matches_fd(model, set, pf.state, 1e-5, "power flow state");
  const GridState flat(c.network.num_buses());
  expect_jacobian_matches_fd(model, set, flat, 1e-5, "flat start");

  const sparse::Csr at_flat = model.jacobian(set, flat);
  expect_same_pattern(at_flat, model.jacobian(set, pf.state));
  EXPECT_TRUE(std::ranges::any_of(at_flat.values(),
                                  [](double v) { return v == 0.0; }))
      << "expected explicit zeros at a flat start across r = 0 branches";
}

/// The reference angle has no column; a meter on an open branch has an
/// empty row and h = 0, and an injection next to it loses only that
/// neighbour's entries.
TEST(MeasModel, JacobianOmitsReferenceColumnAndOpenBranches) {
  auto c = io::ieee14();
  const BusIndex ref = c.network.slack_bus();
  // An open branch away from the reference, with no parallel circuit.
  std::size_t open = c.network.num_branches();
  for (std::size_t bi = 0; bi < c.network.num_branches(); ++bi) {
    const Branch& br = c.network.branch(bi);
    if (br.from != ref && br.to != ref) {
      open = bi;
      break;
    }
  }
  ASSERT_LT(open, c.network.num_branches());
  c.network.set_branch_in_service(open, false);
  const Branch& br = c.network.branch(open);
  const PowerFlowResult pf = solve_power_flow(c.network);
  ASSERT_TRUE(pf.converged);

  MeasurementSet set;
  set.items.push_back({MeasType::kPFlow, br.from,
                       static_cast<std::int32_t>(open), true, 0.0, 0.01});
  set.items.push_back({MeasType::kQFlow, br.to,
                       static_cast<std::int32_t>(open), false, 0.0, 0.01});
  set.items.push_back({MeasType::kPInjection, br.from, -1, true, 0.0, 0.01});
  set.items.push_back({MeasType::kVAngle, ref, -1, true, 0.0, 0.01});
  const std::size_t ref_branch = c.network.branches_at(ref).front();
  set.items.push_back({MeasType::kPFlow, ref,
                       static_cast<std::int32_t>(ref_branch),
                       c.network.branch(ref_branch).from == ref, 0.0, 0.01});

  const StateIndex index(c.network.num_buses(), ref);
  const MeasurementModel model(c.network, index);
  const sparse::Csr jac = model.jacobian(set, pf.state);
  EXPECT_EQ(jac.cols(), 2 * c.network.num_buses() - 1);
  const auto row_nnz = [&](sparse::Index r) {
    const auto [b, e] = jac.row_range(r);
    return e - b;
  };
  EXPECT_EQ(row_nnz(0), 0);
  EXPECT_EQ(row_nnz(1), 0);
  EXPECT_EQ(model.evaluate(set, pf.state)[0], 0.0);
  // θ and V of the injection bus and of each live neighbour.
  std::set<BusIndex> live;
  live.insert(br.from);
  for (const std::size_t bi : c.network.branches_at(br.from)) {
    if (!c.network.branch(bi).in_service) continue;
    const Branch& at = c.network.branch(bi);
    live.insert(at.from == br.from ? at.to : at.from);
  }
  const int ref_cols = live.count(ref) > 0 ? 1 : 0;
  EXPECT_EQ(row_nnz(2), static_cast<int>(2 * live.size()) - ref_cols);
  EXPECT_EQ(row_nnz(3), 0);  // the reference angle itself
  EXPECT_EQ(row_nnz(4), 3);  // θ_ref omitted
  expect_jacobian_matches_fd(model, set, pf.state, 1e-5, "open branch");
}

/// A Step-2 extended model: own telemetry plus |V| and θ pseudo meters on
/// every remote bus, referenced at an own bus.
TEST(MeasModel, ExtendedModelJacobianMatchesFiniteDifferences) {
  const io::GeneratedCase gc = io::ieee118_dse();
  const Network& net = gc.kase.network;
  const decomp::Decomposition d = decomp::decompose(net, gc.subsystem_of_bus);
  const PowerFlowResult pf = solve_power_flow(net);
  ASSERT_TRUE(pf.converged);
  const MeasurementGenerator gen(net, {});
  const MeasurementSet global = gen.generate_noiseless(pf.state);
  for (int s = 0; s < d.num_subsystems(); ++s) {
    const decomp::SubsystemModel ext = decomp::extract_extended(net, d, s);
    MeasurementSet set = ext.filter(global);
    const GridState state = ext.gather_state(pf.state);
    for (BusIndex l = 0; l < ext.network.num_buses(); ++l) {
      if (ext.own[static_cast<std::size_t>(l)]) continue;
      const auto lu = static_cast<std::size_t>(l);
      set.items.push_back({MeasType::kVMag, l, -1, true, state.vm[lu], 0.01});
      set.items.push_back(
          {MeasType::kVAngle, l, -1, true, state.theta[lu], 0.01});
    }
    const MeasurementModel model(
        ext.network, StateIndex(ext.network.num_buses(), 0), ext.ybus);
    expect_jacobian_matches_fd(model, set, state, 1e-5,
                               "extended " + std::to_string(s));
  }
}

/// A kernel refilled at a sequence of states equals a fresh compile at
/// each, value for value: linearize() leaves nothing behind.
TEST(MeasModel, KernelRefillEqualsFreshCompile) {
  const auto c = io::ieee14();
  const PowerFlowResult pf = solve_power_flow(c.network);
  const MeasurementGenerator gen(c.network, {});
  const MeasurementSet set = gen.generate_noiseless(pf.state);
  const StateIndex index(c.network.num_buses(), c.network.slack_bus());
  const MeasurementModel model(c.network, index);
  MeasurementKernel kernel(model, set);
  std::vector<double> h(set.size());
  Rng rng(3);
  for (int trial = 0; trial < 4; ++trial) {
    GridState state = pf.state;
    for (std::size_t b = 0; b < state.vm.size(); ++b) {
      state.theta[b] += rng.uniform(-0.1, 0.1);
      state.vm[b] += rng.uniform(-0.05, 0.05);
    }
    kernel.linearize(state, h);
    EXPECT_EQ(h, model.evaluate(set, state));
    const sparse::Csr fresh = model.jacobian(set, state);
    expect_same_pattern(kernel.jacobian(), fresh);
    EXPECT_TRUE(std::ranges::equal(kernel.jacobian().values(), fresh.values()));
  }
}

/// Seeded fuzz over the local and extended subsystem models of two
/// decomposed cases: at random states (angles spread well beyond a flat
/// start, magnitudes ±15%), every Jacobian entry matches finite
/// differences and the pattern matches the flat start's.
TEST(MeasKernelFuzz, RandomStatesMatchFiniteDifferences) {
  const std::vector<std::pair<const char*, io::GeneratedCase>> cases = {
      {"ieee118", io::ieee118_dse()}, {"wecc37", io::wecc37()}};
  Rng rng(20261019);
  for (const auto& [name, gc] : cases) {
    const Network& net = gc.kase.network;
    const decomp::Decomposition d =
        decomp::decompose(net, gc.subsystem_of_bus);
    MeasurementPlan plan;
    plan.pmu_coverage = 0.2;
    const MeasurementGenerator gen(net, plan);
    const MeasurementSet global =
        gen.generate_noiseless(GridState(net.num_buses()));
    for (int s = 0; s < d.num_subsystems(); ++s) {
      for (const decomp::SubsystemModel& m :
           {decomp::extract_local(net, d, s),
            decomp::extract_extended(net, d, s)}) {
        const MeasurementSet set = m.filter(global);
        const BusIndex n = m.network.num_buses();
        const auto ref = static_cast<BusIndex>(rng.uniform_int(0, n - 1));
        const MeasurementModel model(m.network, StateIndex(n, ref), m.ybus);
        GridState state(n);
        for (BusIndex b = 0; b < n; ++b) {
          state.theta[static_cast<std::size_t>(b)] = rng.uniform(-0.6, 0.6);
          state.vm[static_cast<std::size_t>(b)] = rng.uniform(0.85, 1.15);
        }
        const std::string what = std::string(name) + " subsystem " +
                                  std::to_string(s) + " (" +
                                  std::to_string(n) + " buses)";
        expect_jacobian_matches_fd(model, set, state, 1e-5, what);
        expect_same_pattern(model.jacobian(set, state),
                            model.jacobian(set, GridState(n)));
      }
    }
  }
}

TEST(MeasModel, NoiselessMeasurementsMatchTruthExactly) {
  const auto c = io::ieee14();
  const PowerFlowResult pf = solve_power_flow(c.network);
  const MeasurementGenerator gen(c.network, {});
  const MeasurementSet set = gen.generate_noiseless(pf.state);
  const StateIndex index(c.network.num_buses(), c.network.slack_bus());
  const MeasurementModel model(c.network, index);
  const auto h = model.evaluate(set, pf.state);
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_NEAR(h[i], set.items[i].value, 1e-12);
  }
}

TEST(MeasModel, InjectionsMatchPowerFlowInjections) {
  const auto c = io::ieee14();
  const PowerFlowResult pf = solve_power_flow(c.network);
  const auto ybus = build_ybus(c.network);
  const auto [p_ref, q_ref] = bus_injections(ybus, pf.state);

  MeasurementSet set;
  for (BusIndex b = 0; b < c.network.num_buses(); ++b) {
    set.items.push_back({MeasType::kPInjection, b, -1, true, 0.0, 0.01});
    set.items.push_back({MeasType::kQInjection, b, -1, true, 0.0, 0.01});
  }
  const StateIndex index(c.network.num_buses(), c.network.slack_bus());
  const MeasurementModel model(c.network, index);
  const auto h = model.evaluate(set, pf.state);
  for (BusIndex b = 0; b < c.network.num_buses(); ++b) {
    EXPECT_NEAR(h[static_cast<std::size_t>(2 * b)],
                p_ref[static_cast<std::size_t>(b)], 1e-10);
    EXPECT_NEAR(h[static_cast<std::size_t>(2 * b + 1)],
                q_ref[static_cast<std::size_t>(b)], 1e-10);
  }
}

TEST(MeasModel, FlowsBalanceWithLosses) {
  // P_ft + P_tf = series loss >= 0 on every branch at the PF solution.
  const auto c = io::ieee14();
  const PowerFlowResult pf = solve_power_flow(c.network);
  const StateIndex index(c.network.num_buses(), c.network.slack_bus());
  const MeasurementModel model(c.network, index);
  for (std::size_t bi = 0; bi < c.network.num_branches(); ++bi) {
    const Branch& br = c.network.branch(bi);
    MeasurementSet set;
    set.items.push_back({MeasType::kPFlow, br.from,
                         static_cast<std::int32_t>(bi), true, 0.0, 0.01});
    set.items.push_back({MeasType::kPFlow, br.to,
                         static_cast<std::int32_t>(bi), false, 0.0, 0.01});
    const auto h = model.evaluate(set, pf.state);
    EXPECT_GE(h[0] + h[1], -1e-10) << "branch " << bi;
  }
}

TEST(MeasModel, FlowsSumToInjectionAtBus) {
  // Sum of from-side flows over branches at a bus equals its injection
  // (net of shunt) — Kirchhoff consistency of the two h(x) families.
  const auto c = io::ieee14();
  const PowerFlowResult pf = solve_power_flow(c.network);
  const StateIndex index(c.network.num_buses(), c.network.slack_bus());
  const MeasurementModel model(c.network, index);

  const BusIndex bus = c.network.index_of(5);  // no shunt at bus 5
  MeasurementSet set;
  for (const std::size_t bi : c.network.branches_at(bus)) {
    const Branch& br = c.network.branch(bi);
    set.items.push_back({MeasType::kPFlow, bus, static_cast<std::int32_t>(bi),
                         br.from == bus, 0.0, 0.01});
  }
  set.items.push_back({MeasType::kPInjection, bus, -1, true, 0.0, 0.01});
  const auto h = model.evaluate(set, pf.state);
  double flow_sum = 0.0;
  for (std::size_t i = 0; i + 1 < h.size(); ++i) flow_sum += h[i];
  EXPECT_NEAR(flow_sum, h.back(), 1e-10);
}

TEST(MeasModel, JacobianSparsityIsLocal) {
  // A flow measurement touches at most 4 state entries; V/angle exactly 1.
  const auto c = io::ieee14();
  const PowerFlowResult pf = solve_power_flow(c.network);
  MeasurementPlan plan;
  const MeasurementGenerator gen(c.network, plan);
  const MeasurementSet set = gen.generate_noiseless(pf.state);
  const StateIndex index(c.network.num_buses(), c.network.slack_bus());
  const MeasurementModel model(c.network, index);
  const sparse::Csr jac = model.jacobian(set, pf.state);
  for (std::size_t row = 0; row < set.size(); ++row) {
    const auto [b, e] = jac.row_range(static_cast<sparse::Index>(row));
    const int nnz = e - b;
    switch (set.items[row].type) {
      case MeasType::kVMag:
      case MeasType::kVAngle:
        EXPECT_EQ(nnz, 1);
        break;
      case MeasType::kPFlow:
      case MeasType::kQFlow:
        EXPECT_LE(nnz, 4);
        EXPECT_GE(nnz, 3);  // one angle may be the reference
        break;
      default:
        break;  // injections touch the bus neighbourhood
    }
  }
}

}  // namespace
}  // namespace gridse::grid
