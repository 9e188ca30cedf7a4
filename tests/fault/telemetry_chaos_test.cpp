#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "fault/fault.hpp"
#include "io/synthetic.hpp"
#include "medici/medici_comm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace/json_mini.hpp"
#include "runtime/resilience.hpp"

namespace gridse::core {
namespace {

namespace fs = std::filesystem;
namespace jsonm = obs::jsonm;

/// Same chaos setup as recovery_chaos_test (ieee118, three clusters, TCP,
/// tight heartbeat), plus the telemetry sampler armed: the point under test
/// is that a mid-cycle kill leaves a flight-recorder post-mortem behind.
SystemConfig telemetry_recovery_config(const std::string& dir) {
  SystemConfig cfg;
  cfg.mapping.num_clusters = 3;
  cfg.transport = Transport::kMediciDirect;
  cfg.resilience.barrier_timeout = std::chrono::milliseconds{30'000};
  cfg.dse.exchange_deadline = std::chrono::milliseconds{2000};
  cfg.resilience.recovery.enabled = true;
  cfg.resilience.recovery.heartbeat.period = std::chrono::milliseconds{5};
  cfg.resilience.recovery.heartbeat.timeout = std::chrono::milliseconds{500};
  cfg.resilience.recovery.heartbeat.rounds = 2;
  cfg.telemetry.dir = dir;
  cfg.telemetry.flight_ring = 8;
  return cfg;
}

/// Silence comm-rank 1 for one cycle (the recovery chaos kill plan: drop
/// every user-tag frame it sends; barrier control is spared).
fault::FaultPlan kill_rank1_plan() {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back({.site = "client.send",
                        .action = fault::ActionKind::kDrop,
                        .source = 1,
                        .tag_min = 0,
                        .tag_max = medici::MediciWorld::kMaxUserTag});
  return plan;
}

/// Where the telemetry artifacts land. Under CI the chaos jobs set
/// GRIDSE_CHAOS_REPORT_DIR and upload it, so the flight files and the
/// time-series survive the run as artifacts; locally a temp dir suffices.
fs::path telemetry_output_dir() {
  if (const auto base = runtime::env_value("GRIDSE_CHAOS_REPORT_DIR")) {
    return fs::path(*base) / "telemetry";
  }
  return fs::temp_directory_path() / "gridse_telemetry_chaos_test";
}

jsonm::Value parse_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string doc((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return jsonm::parse(doc);
}

class TelemetryChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kEnabled) {
      GTEST_SKIP() << "built with GRIDSE_FAULT=OFF";
    }
    if (!obs::kEnabled) {
      GTEST_SKIP() << "built with GRIDSE_OBS=OFF (no telemetry sampler)";
    }
    fault::clear();
  }
  void TearDown() override { fault::clear(); }
};

/// Kill during cycle 1 => flight-1.json names the dead cluster and carries
/// the degraded cycle's record, and the time-series tracks the shrinking
/// participant set across the remap/rejoin sequence.
TEST_F(TelemetryChaosTest, KillDuringCycleProducesFlightRecord) {
  const fs::path dir = telemetry_output_dir();
  fs::remove_all(dir);
  obs::MetricsRegistry::global().reset();

  int dead_cluster = -1;
  {
    DseSystem sys(io::ieee118_dse(),
                  telemetry_recovery_config(dir.string()));
    const CycleReport healthy = sys.run_cycle(0.0);
    EXPECT_TRUE(healthy.dse.all_converged);
    EXPECT_FALSE(fs::exists(dir / "flight-0.json"));

    fault::install(kill_rank1_plan());
    const CycleReport killed = sys.run_cycle(60.0);
    fault::clear();
    EXPECT_TRUE(killed.dse.degraded_mode());
    dead_cluster = killed.participants.at(1);

    const CycleReport remapped = sys.run_cycle(120.0);
    EXPECT_EQ(remapped.participants.size(), 2u);
    sys.announce_rejoin(dead_cluster);
    const CycleReport rejoined = sys.run_cycle(180.0);
    EXPECT_EQ(rejoined.participants.size(), 3u);
  }  // ~DseSystem flushes any pending flight + the sampler's files

  // The kill was detected by the heartbeat during cycle 1, so the flight
  // recorder must have dropped flight-1.json at that cycle's boundary.
  const fs::path flight = dir / "flight-1.json";
  ASSERT_TRUE(fs::exists(flight)) << flight;
  const jsonm::Value doc = parse_file(flight);
  EXPECT_EQ(doc.find("schema")->text, "gridse-flight/1");
  EXPECT_EQ(doc.find("cycle")->as_u64(), 1u);
  ASSERT_EQ(doc.find("dead_clusters")->array.size(), 1u);
  EXPECT_EQ(static_cast<int>(doc.find("dead_clusters")->array[0].number),
            dead_cluster);
  EXPECT_FALSE(doc.find("degraded_subsystems")->array.empty());
  bool saw_cluster_dead = false;
  for (const jsonm::Value& t : doc.find("triggers")->array) {
    if (t.find("kind")->text == "cluster_dead") {
      saw_cluster_dead = true;
      EXPECT_EQ(static_cast<int>(t.find("cluster")->number), dead_cluster);
    }
  }
  EXPECT_TRUE(saw_cluster_dead);
  // The post-mortem trace flush landed next to the flight file.
  EXPECT_TRUE(fs::is_directory(dir / "flight-1-trace"));

  // The remap (cycle 2) and rejoin (cycle 3) transitions each armed the
  // recorder as well.
  EXPECT_TRUE(fs::exists(dir / "flight-2.json"));
  EXPECT_TRUE(fs::exists(dir / "flight-3.json"));

  // Time-series: one record per cycle with the participant counts walking
  // through kill -> remap -> rejoin, and the kill cycle flagged degraded.
  std::ifstream in(dir / "timeseries.jsonl");
  ASSERT_TRUE(in.is_open());
  std::vector<std::size_t> participant_counts;
  std::vector<bool> degraded;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const jsonm::Value rec = jsonm::parse(line);
    const jsonm::Value* kind = rec.find("kind");
    if (kind == nullptr || kind->text != "cycle") continue;
    participant_counts.push_back(rec.find("participants")->array.size());
    degraded.push_back(!rec.find("degraded_subsystems")->array.empty());
  }
  EXPECT_EQ(participant_counts, (std::vector<std::size_t>{3, 3, 2, 3}));
  EXPECT_EQ(degraded, (std::vector<bool>{false, true, false, false}));
}

}  // namespace
}  // namespace gridse::core
