#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace/json_mini.hpp"

namespace gridse::obs {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

/// Parse every non-empty line of a JSONL file.
std::vector<jsonm::Value> read_jsonl(const fs::path& file) {
  std::ifstream in(file);
  EXPECT_TRUE(in.is_open()) << file;
  std::vector<jsonm::Value> records;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      records.push_back(jsonm::parse(line));
    }
  }
  return records;
}

std::vector<jsonm::Value> cycle_records(const std::vector<jsonm::Value>& all) {
  std::vector<jsonm::Value> cycles;
  for (const jsonm::Value& r : all) {
    const jsonm::Value* kind = r.find("kind");
    if (kind != nullptr && kind->text == "cycle") {
      cycles.push_back(r);
    }
  }
  return cycles;
}

/// The tentpole invariant: per-cycle deltas sum back to the end-of-run
/// aggregate exactly, even with 8 writer threads racing the sampler at
/// every cycle boundary. A snapshot that tore (read counter A before a
/// writer's update, counter B after) would break the per-name totals.
TEST(TelemetryTest, CycleDeltasSumToAggregateUnderContention) {
  const fs::path dir = fresh_dir("gridse_telemetry_delta_test");
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;

  std::vector<jsonm::Value> records;
  {
    runtime::TelemetryConfig options;
    options.dir = dir.string();
    TelemetrySampler sampler(options, registry);

    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&registry, t] {
        Counter& shared = registry.counter("x.shared");
        Counter& mine = registry.counter("x.thread_" + std::to_string(t));
        Histogram& hist = registry.histogram("x.lat");
        for (int i = 0; i < kOpsPerThread; ++i) {
          shared.add(1);
          mine.add(3);
          hist.observe(1e-5 * ((i % 7) + 1));
        }
      });
    }
    // Cycle boundaries race the writers on purpose.
    for (int cycle = 0; cycle < 20; ++cycle) {
      CycleStamp stamp;
      stamp.cycle = cycle;
      stamp.participants = {0, 1};
      sampler.on_cycle_end(stamp);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread& w : writers) {
      w.join();
    }
    CycleStamp last;
    last.cycle = 20;
    last.participants = {0, 1};
    sampler.on_cycle_end(last);
    EXPECT_EQ(sampler.cycles_recorded(), 21u);
    records = read_jsonl(dir / "timeseries.jsonl");
  }

  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().find("schema")->text, "gridse-timeseries/1");
  const std::vector<jsonm::Value> cycles = cycle_records(records);
  ASSERT_EQ(cycles.size(), 21u);

  std::map<std::string, std::uint64_t> counter_sums;
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
  std::map<std::string, std::uint64_t> bucket_sums;  // bound text -> count
  for (const jsonm::Value& rec : cycles) {
    if (const jsonm::Value* counters = rec.find("counters");
        counters != nullptr) {
      for (const auto& [name, delta] : counters->object) {
        counter_sums[name] += delta.as_u64();
      }
    }
    const jsonm::Value* hists = rec.find("histograms");
    if (hists == nullptr) continue;
    const jsonm::Value* lat = hists->find("x.lat");
    if (lat == nullptr) continue;
    hist_count += lat->find("count")->as_u64();
    hist_sum += lat->find("sum")->number;
    for (const jsonm::Value& pair : lat->find("buckets")->array) {
      bucket_sums[pair.array.at(0).text] += pair.array.at(1).as_u64();
    }
  }

  const Snapshot final_snap = registry.snapshot();
  for (const auto& [name, value] : final_snap.counters) {
    EXPECT_EQ(counter_sums[name], value) << name;
  }
  const HistogramSnapshot& lat = final_snap.histograms.at("x.lat");
  EXPECT_EQ(hist_count, lat.count);
  EXPECT_EQ(hist_count,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_NEAR(hist_sum, lat.sum, 1e-9 * lat.sum);
  std::uint64_t final_bucket_total = 0;
  for (const auto& [bound, count] : lat.buckets) {
    (void)bound;
    final_bucket_total += count;
  }
  std::uint64_t delta_bucket_total = 0;
  for (const auto& [bound, count] : bucket_sums) {
    (void)bound;
    delta_bucket_total += count;
  }
  EXPECT_EQ(delta_bucket_total, final_bucket_total);
}

/// The flight ring is bounded: with flight_ring = 4 and ten cycles, the
/// post-mortem carries exactly the last four cycle records.
TEST(TelemetryTest, FlightRingKeepsLastNOnOverflow) {
  const fs::path dir = fresh_dir("gridse_telemetry_ring_test");
  MetricsRegistry registry;
  runtime::TelemetryConfig options;
  options.dir = dir.string();
  options.flight_ring = 4;
  TelemetrySampler sampler(options, registry);

  for (int cycle = 0; cycle < 10; ++cycle) {
    registry.counter("x.cycles").add(1);
    CycleStamp stamp;
    stamp.cycle = cycle;
    stamp.participants = {0};
    sampler.on_cycle_end(stamp);
  }
  sampler.note_trigger("cluster_dead", 2, 9);
  sampler.flush_pending_flights();
  EXPECT_EQ(sampler.flights_written(), 1u);

  const fs::path flight = dir / "flight-9.json";
  ASSERT_TRUE(fs::exists(flight)) << flight;
  std::ifstream in(flight);
  std::string doc((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  const jsonm::Value parsed = jsonm::parse(doc);
  EXPECT_EQ(parsed.find("schema")->text, "gridse-flight/1");
  EXPECT_EQ(parsed.find("cycle")->as_u64(), 9u);
  ASSERT_EQ(parsed.find("dead_clusters")->array.size(), 1u);
  EXPECT_EQ(parsed.find("dead_clusters")->array[0].as_u64(), 2u);
  const jsonm::Value* ring = parsed.find("ring");
  ASSERT_NE(ring, nullptr);
  ASSERT_EQ(ring->array.size(), 4u);
  for (std::size_t i = 0; i < ring->array.size(); ++i) {
    EXPECT_EQ(ring->array[i].find("cycle")->as_u64(), 6u + i);
  }
  const jsonm::Value* triggers = parsed.find("triggers");
  ASSERT_EQ(triggers->array.size(), 1u);
  EXPECT_EQ(triggers->array[0].find("kind")->text, "cluster_dead");
}

/// A trigger noted on the final cycle still produces its flight file: the
/// destructor force-flushes pending triggers.
TEST(TelemetryTest, DestructorFlushesPendingFlight) {
  const fs::path dir = fresh_dir("gridse_telemetry_dtor_test");
  MetricsRegistry registry;
  {
    runtime::TelemetryConfig options;
    options.dir = dir.string();
    TelemetrySampler sampler(options, registry);
    for (int cycle = 0; cycle < 3; ++cycle) {
      CycleStamp stamp;
      stamp.cycle = cycle;
      sampler.on_cycle_end(stamp);
    }
    sampler.note_trigger("degraded_combine", -1, 2);
  }
  EXPECT_TRUE(fs::exists(dir / "flight-2.json"));
}

/// Wall-clock interval samples measure progress inside a cycle without
/// advancing the delta baseline, so the cycle-records-sum-to-aggregate
/// invariant survives a background sampler.
TEST(TelemetryTest, IntervalSamplesDoNotAdvanceBaseline) {
  const fs::path dir = fresh_dir("gridse_telemetry_interval_test");
  MetricsRegistry registry;
  std::vector<jsonm::Value> records;
  {
    runtime::TelemetryConfig options;
    options.dir = dir.string();
    options.sample_period = std::chrono::milliseconds(5);
    TelemetrySampler sampler(options, registry);
    for (int cycle = 0; cycle < 2; ++cycle) {
      registry.counter("x.work").add(10);
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      CycleStamp stamp;
      stamp.cycle = cycle;
      sampler.on_cycle_end(stamp);
    }
    records = read_jsonl(dir / "timeseries.jsonl");
  }
  std::size_t intervals = 0;
  std::uint64_t cycle_sum = 0;
  for (const jsonm::Value& rec : records) {
    const jsonm::Value* kind = rec.find("kind");
    if (kind == nullptr) continue;  // header
    if (kind->text == "interval") {
      ++intervals;
      continue;
    }
    const jsonm::Value* counters = rec.find("counters");
    if (const jsonm::Value* v = counters ? counters->find("x.work") : nullptr;
        v != nullptr) {
      cycle_sum += v->as_u64();
    }
  }
  EXPECT_GE(intervals, 1u);  // 60 ms of 5 ms periods: at least one fired
  EXPECT_EQ(cycle_sum, registry.counter("x.work").value());
}

/// Structural golden of the Prometheus exposition: every instrument kind
/// renders with sanitized names, and histogram buckets are cumulative.
TEST(TelemetryTest, ExpositionTextCoversEveryKind) {
  MetricsRegistry registry;
  registry.counter("exchange.retries").add(4);
  registry.gauge("runtime.mailbox.depth").set(7.0);
  Histogram& hist =
      registry.histogram("dse.step1.subsystem_seconds");
  hist.observe(0.5e-6);
  hist.observe(3e-6);
  registry.record_span("dse.step1", "dse.run", 0.25);

  const std::string text = exposition_text(registry.snapshot());
  EXPECT_NE(text.find("# TYPE gridse_exchange_retries counter"),
            std::string::npos);
  EXPECT_NE(text.find("gridse_exchange_retries 4"), std::string::npos);
  EXPECT_NE(text.find("gridse_runtime_mailbox_depth 7"), std::string::npos);
  EXPECT_NE(text.find("gridse_runtime_mailbox_depth_max 7"),
            std::string::npos);
  // Cumulative buckets: the 3 µs observation's bucket also counts the
  // 0.5 µs one, and +Inf counts everything.
  EXPECT_NE(text.find("gridse_dse_step1_subsystem_seconds_bucket"
                      "{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gridse_dse_step1_subsystem_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("gridse_span_dse_step1_total_seconds 0.25"),
            std::string::npos);
}

}  // namespace
}  // namespace gridse::obs
