// Distributed-tracing layer tests: ring-buffer overflow semantics, trace
// context propagation across the inproc and direct-TCP transports, and a golden
// end-to-end check that an ieee118 run produces a valid Perfetto document
// (GRIDSE_OBS=ON) or exactly nothing (GRIDSE_OBS=OFF).

#include "obs/trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "core/architecture.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace/collector.hpp"
#include "obs/trace/event_log.hpp"
#include "obs/trace/json_mini.hpp"
#include "medici/medici_comm.hpp"
#include "runtime/inproc_comm.hpp"

namespace gridse::obs::trace {
namespace {

std::uint64_t registry_counter(const std::string& name) {
  const auto snap = MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(TraceBufferTest, OverflowDropsOldestAndCountsDrops) {
  MetricsRegistry::global().reset();
  Tracer& tracer = Tracer::global();
  tracer.reset(/*capacity=*/8);

  for (int i = 0; i < 20; ++i) {
    TraceRecord rec;
    rec.name = "test.record";
    rec.kind = RecordKind::kSpan;
    rec.span_id = static_cast<std::uint64_t>(i) + 1;
    tracer.buffer().push(rec);
  }
  EXPECT_EQ(tracer.buffer().total_pushed(), 20u);
  EXPECT_EQ(tracer.buffer().dropped(), 12u);
  EXPECT_EQ(registry_counter("trace.dropped"), 12u);

  const std::vector<TraceRecord> kept = tracer.buffer().drain();
  ASSERT_EQ(kept.size(), 8u);
  // Drop-oldest: the survivors are the last 8 pushed, oldest first.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].span_id, 13u + i);
  }
  tracer.reset();
}

#if GRIDSE_OBS

struct SendConsumePair {
  TraceRecord send;
  TraceRecord consume;
  std::vector<TraceRecord> spans;
};

/// Run a 2-rank world where rank 0 sends one tagged message from inside a
/// named span and rank 1 receives it; return the send/consume records.
template <typename World>
SendConsumePair run_send_recv(World& world, std::atomic<std::uint64_t>& scope) {
  world.run([&](runtime::Communicator& comm) {
    if (comm.rank() == 0) {
      OBS_SPAN("trace_test.scope");
      scope.store(ScopedSpan::current_id());
      comm.send(1, 5, {1, 2, 3});
    } else {
      (void)comm.recv(0, 5);
    }
  });
  SendConsumePair pair;
  bool have_send = false;
  bool have_consume = false;
  for (const TraceRecord& rec : Tracer::global().buffer().drain()) {
    if (rec.kind == RecordKind::kSend) {
      EXPECT_FALSE(have_send) << "expected exactly one send record";
      pair.send = rec;
      have_send = true;
    } else if (rec.kind == RecordKind::kConsume) {
      EXPECT_FALSE(have_consume) << "expected exactly one consume record";
      pair.consume = rec;
      have_consume = true;
    } else if (rec.kind == RecordKind::kSpan) {
      pair.spans.push_back(rec);
    }
  }
  EXPECT_TRUE(have_send);
  EXPECT_TRUE(have_consume);
  return pair;
}

TEST(TracePropagationTest, InprocConsumeParentIsSenderSpan) {
  Tracer::global().reset();
  std::atomic<std::uint64_t> scope{0};
  runtime::InprocWorld world(2);
  const SendConsumePair pair = run_send_recv(world, scope);

  EXPECT_EQ(pair.send.parent_id, scope.load());  // nested in the test span
  EXPECT_EQ(pair.consume.parent_id, pair.send.span_id);
  EXPECT_EQ(pair.consume.flow_id, pair.send.flow_id);
  EXPECT_EQ(pair.send.rank, 0);
  EXPECT_EQ(pair.consume.rank, 1);
  EXPECT_GT(pair.consume.clock, pair.send.clock);  // Lamport order
}

TEST(TracePropagationTest, TcpConsumeParentIsSenderSpanAcrossTheWire) {
  Tracer::global().reset();
  std::atomic<std::uint64_t> scope{0};
  medici::MediciWorld world(2, medici::TransportMode::kDirectTcp);
  const SendConsumePair pair = run_send_recv(world, scope);

  // MwClient takes the send record inside its own client span: the record's
  // parent is that span, and the span's parent is the test scope.
  const auto client_span = std::find_if(
      pair.spans.begin(), pair.spans.end(), [&](const TraceRecord& rec) {
        return rec.span_id == pair.send.parent_id;
      });
  ASSERT_NE(client_span, pair.spans.end());
  EXPECT_STREQ(client_span->name, "medici.client.send");
  EXPECT_EQ(client_span->parent_id, scope.load());
  EXPECT_EQ(pair.consume.parent_id, pair.send.span_id);
  EXPECT_EQ(pair.consume.flow_id, pair.send.flow_id);
  EXPECT_EQ(pair.send.rank, 0);
  EXPECT_EQ(pair.consume.rank, 1);
  EXPECT_GT(pair.consume.clock, pair.send.clock);
}

TEST(TracePropagationTest, DisabledTracerPutsNothingOnTheWire) {
  Tracer::global().reset();
  Tracer::global().set_enabled(false);
  std::atomic<std::uint64_t> scope{0};
  medici::MediciWorld world(2, medici::TransportMode::kDirectTcp);
  world.run([&](runtime::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, {1, 2, 3});
    } else {
      (void)comm.recv(0, 5);
    }
  });
  (void)scope;
  EXPECT_TRUE(Tracer::global().buffer().drain().empty());
  Tracer::global().set_enabled(true);
}

#endif  // GRIDSE_OBS

/// Golden end-to-end run: 2 clusters of ieee118 through the full system.
/// Under GRIDSE_OBS=ON the flush must produce per-rank files that merge
/// into a valid Perfetto document with flow events and DSE phases; under
/// OFF the same run must produce exactly nothing.
TEST(TraceGoldenTest, Ieee118TwoClusterRun) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gridse_trace_golden_test";
  std::filesystem::remove_all(dir);
  Tracer::global().reset();
  EventLog::global().reset();

  {
    core::SystemConfig cfg;
    cfg.mapping.num_clusters = 2;
    cfg.transport = core::Transport::kInproc;
    cfg.trace_dir = dir.string();
    core::DseSystem sys(io::ieee118_dse(), cfg);
    const core::CycleReport rep = sys.run_cycle(0.0);
    EXPECT_TRUE(rep.dse.all_converged);
  }  // ~DseSystem flushes the trace

#if GRIDSE_OBS
  std::vector<RankTrace> ranks;
  for (int r = 0; r < 2; ++r) {
    const std::filesystem::path file =
        dir / ("trace_rank_" + std::to_string(r) + ".jsonl");
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
    ranks.push_back(load_rank_trace(file.string()));
    EXPECT_EQ(ranks.back().rank, r);
    EXPECT_FALSE(ranks.back().records.empty());
  }
  const std::string merged = merge_to_chrome_json(ranks);
  EXPECT_TRUE(validate_chrome_trace(merged).empty());
  // Structural goldens: flow start + finish events and the DSE phases.
  EXPECT_NE(merged.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(merged.find("\"phase\":\"Step1\""), std::string::npos);
  EXPECT_NE(merged.find("\"phase\":\"Step2\""), std::string::npos);
  EXPECT_NE(merged.find("\"phase\":\"Exchange\""), std::string::npos);
  EXPECT_NE(merged.find("\"phase\":\"Combine\""), std::string::npos);
  const std::string summary = critical_path_summary(ranks);
  EXPECT_NE(summary.find("Step1"), std::string::npos);
  EXPECT_NE(summary.find("slowest rank"), std::string::npos);
#else
  // The OFF build must write no files at all — not empty ones.
  EXPECT_FALSE(std::filesystem::exists(dir));
  const FlushStats stats = write_trace_files(dir.string());
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_TRUE(stats.files.empty());
  // Merging nothing yields the exact empty golden document, still valid.
  const std::string merged = merge_to_chrome_json({});
  EXPECT_EQ(merged,
            "{\n\"displayTimeUnit\":\"ms\",\n"
            "\"otherData\":{\"schema\":\"gridse-perfetto/1\"},\n"
            "\"traceEvents\":[\n]}\n");
  EXPECT_TRUE(validate_chrome_trace(merged).empty());
#endif
  std::filesystem::remove_all(dir);
}

TEST(JsonMiniTest, AsU64ReadsOnlyPlainUnsignedIntegers) {
  const jsonm::Value doc = jsonm::parse(
      R"({"id":18446744073709551615,"ts":0,"exp":1e3,"frac":2.7,)"
      R"("neg":-5,"big":18446744073709551616,"name":"x"})");
  EXPECT_EQ(doc.find("id")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(doc.find("ts")->as_u64(), 0u);
  EXPECT_EQ(doc.find("name")->as_u64(), 0u);  // not a number
  for (const char* key : {"exp", "frac", "neg", "big"}) {
    EXPECT_THROW((void)doc.find(key)->as_u64(), InvalidInput) << key;
  }
}

TEST(EventLogTest, DropsOldestWhenFullAndCountsDrops) {
  MetricsRegistry::global().reset();
  Tracer::global().reset();
  EventLog& log = EventLog::global();
  log.reset(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    log.emit("test.event", event_attr("i", i));
  }
  // Direct API calls work in both GRIDSE_OBS modes (only the macro call
  // sites compile out), so this is mode-independent.
  const std::vector<Event> kept = log.drain();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(registry_counter("trace.events.dropped"), 6u);
  ASSERT_EQ(kept.back().attrs.size(), 1u);
  EXPECT_STREQ(kept.back().attrs.front().key, "i");
  EXPECT_EQ(kept.back().attrs.front().value, "9");
  log.reset();
}

}  // namespace
}  // namespace gridse::obs::trace
