#include "core/local_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "decomp/sensitivity.hpp"
#include "util/error.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "io/synthetic.hpp"
#include "util/rng.hpp"

namespace gridse::core {
namespace {

class LocalEstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    generated_ = io::ieee118_dse();
    d_ = decomp::decompose(generated_.kase.network,
                           generated_.subsystem_of_bus);
    decomp::analyze_sensitivity(generated_.kase.network, d_, {});
    pf_ = grid::solve_power_flow(generated_.kase.network);
    ASSERT_TRUE(pf_.converged);
    grid::MeasurementPlan plan;
    for (const decomp::Subsystem& s : d_.subsystems) {
      plan.pmu_buses.push_back(s.buses.front());
    }
    gen_ = std::make_unique<grid::MeasurementGenerator>(
        generated_.kase.network, plan);
    Rng rng(33);
    meas_ = gen_->generate(pf_.state, rng);
    route_ = route(meas_);
  }

  [[nodiscard]] decomp::MeasurementRoute route(
      const grid::MeasurementSet& set) const {
    return decomp::route_measurements(d_, generated_.kase.network, set);
  }

  io::GeneratedCase generated_;
  decomp::Decomposition d_;
  grid::PowerFlowResult pf_;
  std::unique_ptr<grid::MeasurementGenerator> gen_;
  grid::MeasurementSet meas_;
  decomp::MeasurementRoute route_;
};

TEST_F(LocalEstimatorTest, Step1ConvergesOnEverySubsystem) {
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    LocalEstimator est(generated_.kase.network, d_, s, {});
    const LocalSolveInfo info = est.run_step1(meas_, route_);
    EXPECT_TRUE(info.converged) << "subsystem " << s;
    EXPECT_GT(info.num_measurements, 0u);
    // Step-1 solution accuracy on own buses: internal buses should be close
    // to the truth even before Step 2.
    double max_vm_err = 0.0;
    for (const BusStateRecord& rec : est.step1_all_states()) {
      max_vm_err = std::max(
          max_vm_err, std::abs(rec.vm - pf_.state.vm[static_cast<std::size_t>(
                                            rec.bus)]));
    }
    EXPECT_LT(max_vm_err, 0.05) << "subsystem " << s;
  }
}

TEST_F(LocalEstimatorTest, BoundaryRecordsAreTheOwnTieEnds) {
  LocalEstimator est(generated_.kase.network, d_, 2, {});
  est.run_step1(meas_, route_);
  const decomp::Subsystem& sub = d_.subsystems[2];
  std::set<grid::BusIndex> shipped;
  for (const decomp::TieEnds& tie : sub.ties) {
    std::vector<grid::BusIndex> buses;
    for (const BusStateRecord& rec : est.boundary_records(tie.neighbor)) {
      buses.push_back(rec.bus);
    }
    EXPECT_EQ(buses, tie.own) << "neighbour " << tie.neighbor;
    shipped.insert(buses.begin(), buses.end());
  }
  // Every boundary bus goes to some neighbour; no sensitive bus goes out.
  EXPECT_EQ(std::vector<grid::BusIndex>(shipped.begin(), shipped.end()),
            sub.boundary_buses);
  EXPECT_THROW((void)est.boundary_records(2), InternalError);
}

TEST_F(LocalEstimatorTest, Step2RequiresStep1) {
  LocalEstimator est(generated_.kase.network, d_, 1, {});
  EXPECT_THROW(est.run_step2(meas_, route_, {}), InternalError);
}

TEST_F(LocalEstimatorTest, Step2RejectsRecordsOffTheRemoteBuses) {
  LocalEstimator est(generated_.kase.network, d_, 2, {});
  est.run_step1(meas_, route_);
  const decomp::TieEnds& tie = d_.subsystems[2].ties.front();
  // An own bus, and a bus of the neighbour off the tie lines.
  const grid::BusIndex own = tie.own.front();
  grid::BusIndex off_tie = -1;
  for (const grid::BusIndex b :
       d_.subsystems[static_cast<std::size_t>(tie.neighbor)].buses) {
    if (!std::binary_search(tie.far.begin(), tie.far.end(), b)) {
      off_tie = b;
      break;
    }
  }
  ASSERT_GE(off_tie, 0);
  for (const grid::BusIndex bus : {own, off_tie}) {
    const std::vector<BusStateRecord> records = {{bus, 0.0, 1.0}};
    EXPECT_THROW(est.run_step2(meas_, route_, records), InternalError)
        << "bus " << bus;
  }
}

TEST_F(LocalEstimatorTest, Step2ImprovesBoundaryAccuracy) {
  // Aggregate over all subsystems: boundary-bus error after Step 2 with
  // neighbour pseudo measurements must beat Step 1 alone.
  std::vector<std::unique_ptr<LocalEstimator>> estimators;
  // Exports are taken after Step 1 everywhere, before any Step 2 runs:
  // imports[s] gathers what every neighbour ships to s.
  std::vector<std::vector<BusStateRecord>> imports(
      static_cast<std::size_t>(d_.num_subsystems()));
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    estimators.push_back(std::make_unique<LocalEstimator>(
        generated_.kase.network, d_, s, LocalEstimatorOptions{}));
    estimators.back()->run_step1(meas_, route_);
  }
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    for (const int t : d_.neighbors_of(s)) {
      const auto recs =
          estimators[static_cast<std::size_t>(t)]->boundary_records(s);
      auto& sink = imports[static_cast<std::size_t>(s)];
      sink.insert(sink.end(), recs.begin(), recs.end());
    }
  }
  double step1_err = 0.0;
  double step2_err = 0.0;
  int boundary_count = 0;
  for (int s = 0; s < d_.num_subsystems(); ++s) {
    const std::vector<BusStateRecord>& neighbor_states =
        imports[static_cast<std::size_t>(s)];
    const LocalSolveInfo info =
        estimators[static_cast<std::size_t>(s)]->run_step2(
            meas_, route_, neighbor_states);
    EXPECT_TRUE(info.converged) << "subsystem " << s;

    const auto before = estimators[static_cast<std::size_t>(s)]->step1_all_states();
    const auto after = estimators[static_cast<std::size_t>(s)]->final_states();
    const auto& boundary = d_.subsystems[static_cast<std::size_t>(s)].boundary_buses;
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (std::find(boundary.begin(), boundary.end(), before[i].bus) ==
          boundary.end()) {
        continue;
      }
      const auto bi = static_cast<std::size_t>(before[i].bus);
      step1_err += std::abs(before[i].vm - pf_.state.vm[bi]) +
                   std::abs(before[i].theta - pf_.state.theta[bi]);
      step2_err += std::abs(after[i].vm - pf_.state.vm[bi]) +
                   std::abs(after[i].theta - pf_.state.theta[bi]);
      ++boundary_count;
    }
  }
  ASSERT_GT(boundary_count, 0);
  EXPECT_LT(step2_err, step1_err);
}

TEST_F(LocalEstimatorTest, AdoptStep1MatchesLocalRun) {
  LocalEstimator a(generated_.kase.network, d_, 3, {});
  a.run_step1(meas_, route_);
  const auto records = a.step1_all_states();

  LocalEstimator b(generated_.kase.network, d_, 3, {});
  b.adopt_step1(records);
  const auto adopted = b.step1_all_states();
  ASSERT_EQ(adopted.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(adopted[i].theta, records[i].theta);
    EXPECT_DOUBLE_EQ(adopted[i].vm, records[i].vm);
  }
}

TEST_F(LocalEstimatorTest, AdoptStep1RejectsBadRecords) {
  LocalEstimator est(generated_.kase.network, d_, 3, {});
  // wrong subsystem's buses
  LocalEstimator other(generated_.kase.network, d_, 4, {});
  other.run_step1(meas_, route_);
  EXPECT_THROW(est.adopt_step1(other.step1_all_states()), InvalidInput);
  // incomplete
  LocalEstimator self(generated_.kase.network, d_, 3, {});
  self.run_step1(meas_, route_);
  auto partial = self.step1_all_states();
  partial.pop_back();
  EXPECT_THROW(est.adopt_step1(partial), InvalidInput);
}

TEST_F(LocalEstimatorTest, MissingPmuIsDiagnosed) {
  // Strip all angle measurements: subsystems without the slack bus must
  // refuse to run.
  grid::MeasurementSet no_pmu = meas_;
  no_pmu.items.erase(
      std::remove_if(no_pmu.items.begin(), no_pmu.items.end(),
                     [](const grid::Measurement& m) {
                       return m.type == grid::MeasType::kVAngle;
                     }),
      no_pmu.items.end());
  // subsystem 8 does not contain the global slack (bus 0 is in subsystem 0)
  const decomp::MeasurementRoute no_pmu_route = route(no_pmu);
  LocalEstimator est(generated_.kase.network, d_, 8, {});
  EXPECT_THROW(est.run_step1(no_pmu, no_pmu_route), InvalidInput);
  // subsystem 0 hosts the slack and still works
  LocalEstimator est0(generated_.kase.network, d_, 0, {});
  EXPECT_TRUE(est0.run_step1(no_pmu, no_pmu_route).converged);
}

TEST_F(LocalEstimatorTest, RobustModeBoundsLocalBadData) {
  // Corrupt one flow measurement inside subsystem 2 and compare the
  // exported boundary states: Huber keeps them close to truth, plain WLS
  // drags them off — gross local errors must not poison the neighbours.
  grid::MeasurementSet bad = meas_;
  const decomp::SubsystemModel local =
      decomp::extract_local(generated_.kase.network, d_, 2);
  std::size_t victim = SIZE_MAX;
  for (std::size_t i = 0; i < bad.items.size(); ++i) {
    const grid::Measurement& m = bad.items[i];
    if (m.type == grid::MeasType::kPFlow &&
        local.local_branch_of_global.contains(m.branch)) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  bad.items[victim].value += 1.0;
  const decomp::MeasurementRoute bad_route = route(bad);

  const auto boundary_error = [&](const LocalEstimatorOptions& opts) {
    LocalEstimator est(generated_.kase.network, d_, 2, opts);
    EXPECT_TRUE(est.run_step1(bad, bad_route).converged);
    double err = 0.0;
    for (const int t : d_.neighbors_of(2)) {
      for (const BusStateRecord& rec : est.boundary_records(t)) {
        const auto bi = static_cast<std::size_t>(rec.bus);
        err += std::abs(rec.vm - pf_.state.vm[bi]) +
               std::abs(rec.theta - pf_.state.theta[bi]);
      }
    }
    return err;
  };
  LocalEstimatorOptions plain;
  LocalEstimatorOptions robust;
  robust.robust = true;
  EXPECT_LT(boundary_error(robust), boundary_error(plain));
}

TEST_F(LocalEstimatorTest, WarmStartConvergesInFewerIterations) {
  LocalEstimator cold(generated_.kase.network, d_, 3, {});
  const LocalSolveInfo cold_info = cold.run_step1(meas_, route_);
  ASSERT_TRUE(cold_info.converged);
  EXPECT_FALSE(cold_info.warm_start);
  ASSERT_GT(cold_info.gauss_newton_iterations, 1);

  // Warm-start a fresh estimator from the cold solution: same measurements,
  // so the first iterate is already (nearly) the fixed point.
  LocalEstimator warm(generated_.kase.network, d_, 3, {});
  warm.set_warm_start(cold.step1_all_states());
  const LocalSolveInfo warm_info = warm.run_step1(meas_, route_);
  EXPECT_TRUE(warm_info.converged);
  EXPECT_TRUE(warm_info.warm_start);
  EXPECT_LT(warm_info.gauss_newton_iterations,
            cold_info.gauss_newton_iterations);

  const auto cold_states = cold.step1_all_states();
  const auto warm_states = warm.step1_all_states();
  ASSERT_EQ(warm_states.size(), cold_states.size());
  for (std::size_t i = 0; i < cold_states.size(); ++i) {
    EXPECT_NEAR(warm_states[i].vm, cold_states[i].vm, 1e-6);
    EXPECT_NEAR(warm_states[i].theta, cold_states[i].theta, 1e-6);
  }
}

TEST_F(LocalEstimatorTest, WarmStartIsOneShot) {
  LocalEstimator cold(generated_.kase.network, d_, 3, {});
  const LocalSolveInfo cold_info = cold.run_step1(meas_, route_);

  LocalEstimator est(generated_.kase.network, d_, 3, {});
  est.set_warm_start(cold.step1_all_states());
  EXPECT_TRUE(est.run_step1(meas_, route_).warm_start);
  // The seed was consumed: the next cycle runs cold again, identical to a
  // never-warmed estimator.
  const LocalSolveInfo second = est.run_step1(meas_, route_);
  EXPECT_FALSE(second.warm_start);
  EXPECT_EQ(second.gauss_newton_iterations,
            cold_info.gauss_newton_iterations);
}

TEST_F(LocalEstimatorTest, CheckpointRoundTripPreservesWarmStartExactly) {
  // serialize → restore → re-solve: the decoded checkpoint must drive the
  // identical Gauss-Newton trajectory as the in-memory records.
  LocalEstimator source(generated_.kase.network, d_, 3, {});
  source.run_step1(meas_, route_);
  EstimatorCheckpoint ckpt;
  ckpt.subsystem = 3;
  ckpt.cycle = 1;
  ckpt.step1_states = source.final_states();
  const EstimatorCheckpoint decoded =
      decode_checkpoint(encode_checkpoint(ckpt));

  LocalEstimator from_memory(generated_.kase.network, d_, 3, {});
  from_memory.set_warm_start(ckpt.step1_states);
  LocalEstimator from_wire(generated_.kase.network, d_, 3, {});
  from_wire.set_warm_start(decoded.step1_states);

  const LocalSolveInfo a = from_memory.run_step1(meas_, route_);
  const LocalSolveInfo b = from_wire.run_step1(meas_, route_);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  EXPECT_EQ(a.gauss_newton_iterations, b.gauss_newton_iterations);
  const auto sa = from_memory.step1_all_states();
  const auto sb = from_wire.step1_all_states();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].theta, sb[i].theta);
    EXPECT_DOUBLE_EQ(sa[i].vm, sb[i].vm);
  }
}

TEST_F(LocalEstimatorTest, WarmStartRejectsForeignOrPartialRecords) {
  LocalEstimator other(generated_.kase.network, d_, 4, {});
  other.run_step1(meas_, route_);
  LocalEstimator est(generated_.kase.network, d_, 3, {});
  EXPECT_THROW(est.set_warm_start(other.step1_all_states()), InvalidInput);

  LocalEstimator self(generated_.kase.network, d_, 3, {});
  self.run_step1(meas_, route_);
  auto partial = self.step1_all_states();
  partial.pop_back();
  EXPECT_THROW(est.set_warm_start(partial), InvalidInput);
}

TEST_F(LocalEstimatorTest, FinalStatesFallBackToStep1) {
  LocalEstimator est(generated_.kase.network, d_, 5, {});
  est.run_step1(meas_, route_);
  const auto finals = est.final_states();
  const auto step1 = est.step1_all_states();
  ASSERT_EQ(finals.size(), step1.size());
  for (std::size_t i = 0; i < finals.size(); ++i) {
    EXPECT_DOUBLE_EQ(finals[i].vm, step1[i].vm);
  }
}

}  // namespace
}  // namespace gridse::core
