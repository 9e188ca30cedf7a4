#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace gridse::fault {
namespace {

/// Every test leaves the process-wide fault layer clean.
class FaultPlanTest : public ::testing::Test {
 protected:
  void TearDown() override {
    clear();
    ::unsetenv("GRIDSE_FAULT_PLAN");
  }
};

TEST_F(FaultPlanTest, ParsesAllFields) {
  const FaultPlan plan = FaultPlan::parse(R"({
    "seed": 42,
    "rules": [{"site": "wire.write", "action": "bitflip",
               "probability": 0.25, "source": 1, "tag_min": 16,
               "tag_max": 400, "after": 2, "max": 10, "delay_ms": 50}]
  })");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.rules.size(), 1u);
  const FaultRule& rule = plan.rules[0];
  EXPECT_EQ(rule.site, "wire.write");
  EXPECT_EQ(rule.action, ActionKind::kBitFlip);
  EXPECT_DOUBLE_EQ(rule.probability, 0.25);
  EXPECT_EQ(rule.source, 1);
  EXPECT_EQ(rule.tag_min, 16);
  EXPECT_EQ(rule.tag_max, 400);
  EXPECT_EQ(rule.after, 2);
  EXPECT_EQ(rule.max_injections, 10);
  EXPECT_EQ(rule.delay.count(), 50);
}

TEST_F(FaultPlanTest, DefaultsAreWildcardDropAlways) {
  const FaultPlan plan =
      FaultPlan::parse(R"({"rules": [{"site": "mailbox.deliver"}]})");
  EXPECT_EQ(plan.seed, 1u);
  const FaultRule& rule = plan.rules[0];
  EXPECT_EQ(rule.action, ActionKind::kDrop);
  EXPECT_DOUBLE_EQ(rule.probability, 1.0);
  EXPECT_EQ(rule.source, kAnyValue);
  EXPECT_EQ(rule.tag_min, kAnyValue);
  EXPECT_EQ(rule.tag_max, kAnyValue);
  EXPECT_EQ(rule.after, 0);
  EXPECT_EQ(rule.max_injections, -1);
}

TEST_F(FaultPlanTest, TagShorthandSetsBothEnds) {
  const FaultPlan plan = FaultPlan::parse(
      R"({"rules": [{"site": "client.send", "tag": 7}]})");
  EXPECT_EQ(plan.rules[0].tag_min, 7);
  EXPECT_EQ(plan.rules[0].tag_max, 7);
}

TEST_F(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_THROW(FaultPlan::parse("[]"), InvalidInput);
  EXPECT_THROW(FaultPlan::parse("{}"), InvalidInput);
  EXPECT_THROW(FaultPlan::parse(R"({"rules": [{}]})"), InvalidInput);
  EXPECT_THROW(
      FaultPlan::parse(
          R"({"rules": [{"site": "wire.write", "action": "explode"}]})"),
      InvalidInput);
  EXPECT_THROW(
      FaultPlan::parse(
          R"({"rules": [{"site": "wire.write", "probability": 1.5}]})"),
      InvalidInput);
  EXPECT_THROW(
      FaultPlan::parse(R"({"rules": [{"site": "wire.write", "after": -1}]})"),
      InvalidInput);
  EXPECT_THROW(
      FaultPlan::parse(
          R"({"rules": [{"site": "wire.write", "delay_ms": -5}]})"),
      InvalidInput);
  // Integer fields are never truncated, wrapped or clamped, no field can
  // spell the kAnyValue wildcard, and a number token never reads as its
  // longest valid prefix ("0.5.5" as 0.5, "-" as 0, "1e" as 1).
  for (const char* bad :
       {R"({"seed": -5, "rules": []})", R"({"seed": 1.5, "rules": []})",
        R"({"rules": [{"site": "wire.write", "after": 2.7}]})",
        R"({"rules": [{"site": "wire.write", "delay_ms": 1e300}]})",
        R"({"rules": [{"site": "wire.write", "tag": 4294967296}]})",
        R"({"rules": [{"site": "wire.write", "source": -2147483648}]})",
        R"({"rules": [{"site": "wire.write", "probability": 0.5.5}]})",
        R"({"rules": [{"site": "wire.write", "probability": -}]})",
        R"({"rules": [{"site": "wire.write", "probability": 1e}]})",
        R"({"rules": [{"site": "wire.write", "probability": 0.3-0.1}]})"}) {
    EXPECT_THROW(FaultPlan::parse(bad), InvalidInput) << bad;
  }
}

TEST_F(FaultPlanTest, RejectsUnknownSites) {
  // A rule naming a site no hook checks would inject nothing, silently.
  EXPECT_THROW(FaultPlan::parse(R"({"rules":[{"site":"tcp.send"}]})"),
               InvalidInput);
  EXPECT_THROW(FaultPlan::parse(R"({"rules":[{"site":"wire"}]})"),
               InvalidInput);
  EXPECT_THROW(FaultPlan::parse(R"({"rules":[{"site":"tcp.*"}]})"),
               InvalidInput);
  // A prefix pattern is accepted when it matches at least one known site.
  EXPECT_NO_THROW(FaultPlan::parse(R"({"rules":[{"site":"wire.*"}]})"));
  for (const std::string_view site : kKnownSites) {
    const std::string json =
        R"({"rules":[{"site":")" + std::string(site) + R"("}]})";
    EXPECT_NO_THROW(FaultPlan::parse(json)) << site;
  }
}

TEST_F(FaultPlanTest, ExactAndPrefixSiteMatching) {
  FaultPlan plan;
  plan.rules.push_back({.site = "wire.*", .action = ActionKind::kDrop});
  install(plan);
  EXPECT_TRUE(maybe("socket.send").none());  // no match, no action
  EXPECT_EQ(maybe("wire.write").kind, ActionKind::kDrop);
  EXPECT_EQ(maybe("wire.read").kind, ActionKind::kDrop);
  EXPECT_TRUE(maybe("wir").none());
}

TEST_F(FaultPlanTest, SourceAndTagWindowsFilter) {
  FaultPlan plan;
  plan.rules.push_back({.site = "client.send",
                        .action = ActionKind::kDrop,
                        .source = 1,
                        .tag_min = 10,
                        .tag_max = 20});
  install(plan);
  EXPECT_TRUE(maybe("client.send", 0, 15).none());   // wrong source
  EXPECT_TRUE(maybe("client.send", 1, 9).none());    // below window
  EXPECT_TRUE(maybe("client.send", 1, 21).none());   // above window
  EXPECT_EQ(maybe("client.send", 1, 10).kind, ActionKind::kDrop);
  EXPECT_EQ(maybe("client.send", 1, 20).kind, ActionKind::kDrop);
}

TEST_F(FaultPlanTest, AfterSkipsTheFirstHitsPerStream) {
  FaultPlan plan;
  plan.rules.push_back(
      {.site = "s", .action = ActionKind::kDrop, .after = 2});
  install(plan);
  // First two hits of the (0, 0) stream pass untouched, the third drops.
  EXPECT_TRUE(maybe("s", 0, 0).none());
  EXPECT_TRUE(maybe("s", 0, 0).none());
  EXPECT_EQ(maybe("s", 0, 0).kind, ActionKind::kDrop);
  // A different stream has its own counter.
  EXPECT_TRUE(maybe("s", 1, 0).none());
}

TEST_F(FaultPlanTest, MaxInjectionsCapsTheRule) {
  FaultPlan plan;
  plan.rules.push_back(
      {.site = "s", .action = ActionKind::kDrop, .max_injections = 2});
  install(plan);
  EXPECT_EQ(maybe("s").kind, ActionKind::kDrop);
  EXPECT_EQ(maybe("s").kind, ActionKind::kDrop);
  EXPECT_TRUE(maybe("s").none());
  EXPECT_EQ(injected_count(), 2u);
}

TEST_F(FaultPlanTest, ErrorActionThrowsCommError) {
  FaultPlan plan;
  plan.rules.push_back({.site = "s", .action = ActionKind::kError});
  install(plan);
  EXPECT_THROW(maybe("s"), CommError);
  EXPECT_EQ(injection_log().size(), 1u);
}

TEST_F(FaultPlanTest, InjectDropTreatsAnyActionAsDrop) {
  FaultPlan plan;
  plan.rules.push_back({.site = "s", .action = ActionKind::kBitFlip});
  install(plan);
  EXPECT_TRUE(inject_drop("s"));
}

TEST_F(FaultPlanTest, SameSeedSameDecisions) {
  const auto run = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.rules.push_back(
        {.site = "s", .action = ActionKind::kDrop, .probability = 0.5});
    install(plan);
    std::vector<bool> fired;
    for (int tag = 0; tag < 8; ++tag) {
      for (int hit = 0; hit < 32; ++hit) {
        fired.push_back(!maybe("s", 0, tag).none());
      }
    }
    const auto log = injection_log();
    clear();
    return std::make_pair(fired, log);
  };
  const auto [fired_a, log_a] = run(7);
  const auto [fired_b, log_b] = run(7);
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_EQ(log_a, log_b);
  const auto [fired_c, log_c] = run(8);
  EXPECT_NE(fired_a, fired_c);  // a different seed changes the schedule
}

TEST_F(FaultPlanTest, DecisionsAreIndependentOfThreadInterleaving) {
  // Two threads hammer disjoint (source, tag) streams concurrently; the
  // sorted injection log must equal a single-threaded run of the same plan.
  const auto make_plan = [] {
    FaultPlan plan;
    plan.seed = 99;
    plan.rules.push_back(
        {.site = "s", .action = ActionKind::kDrop, .probability = 0.3});
    return plan;
  };
  install(make_plan());
  {
    std::thread a([] {
      for (int hit = 0; hit < 200; ++hit) (void)maybe("s", 0, 1);
    });
    std::thread b([] {
      for (int hit = 0; hit < 200; ++hit) (void)maybe("s", 1, 2);
    });
    a.join();
    b.join();
  }
  const auto threaded = injection_log();

  install(make_plan());
  for (int hit = 0; hit < 200; ++hit) (void)maybe("s", 0, 1);
  for (int hit = 0; hit < 200; ++hit) (void)maybe("s", 1, 2);
  const auto sequential = injection_log();

  EXPECT_EQ(threaded, sequential);
}

TEST_F(FaultPlanTest, FirstMatchingRuleWins) {
  FaultPlan plan;
  plan.rules.push_back(
      {.site = "s", .action = ActionKind::kDrop, .max_injections = 1});
  plan.rules.push_back({.site = "s", .action = ActionKind::kBitFlip});
  install(plan);
  EXPECT_EQ(maybe("s").kind, ActionKind::kDrop);
  // Rule 0 is capped out; rule 1 takes over.
  EXPECT_EQ(maybe("s").kind, ActionKind::kBitFlip);
}

TEST_F(FaultPlanTest, EnvPlanInstallsInlineJson) {
  ::setenv("GRIDSE_FAULT_PLAN",
           R"({"seed": 3, "rules": [{"site": "mailbox.deliver"}]})", 1);
  EXPECT_TRUE(load_env_plan());
  EXPECT_TRUE(active());
  EXPECT_EQ(maybe("mailbox.deliver").kind, ActionKind::kDrop);
}

TEST_F(FaultPlanTest, EnvPlanReportsMissingFile) {
  ::setenv("GRIDSE_FAULT_PLAN", "/nonexistent/fault_plan.json", 1);
  EXPECT_THROW(load_env_plan(), InvalidInput);
}

TEST_F(FaultPlanTest, BitflipIsDeterministicAndSingleBit) {
  std::vector<std::uint8_t> a(16, 0);
  std::vector<std::uint8_t> b(16, 0);
  apply_bitflip(12345, a);
  apply_bitflip(12345, b);
  EXPECT_EQ(a, b);
  int set_bits = 0;
  for (const std::uint8_t byte : a) set_bits += __builtin_popcount(byte);
  EXPECT_EQ(set_bits, 1);
  apply_bitflip(12345, {});  // empty span: no-op, no crash
}

TEST_F(FaultPlanTest, TruncateLengthIsAStrictNonemptyPrefix) {
  for (std::uint64_t mutation = 0; mutation < 64; ++mutation) {
    const std::size_t cut = truncate_length(mutation, 40);
    EXPECT_GE(cut, 1u);
    EXPECT_LT(cut, 40u);
  }
  EXPECT_EQ(truncate_length(0, 2), 1u);
}

TEST_F(FaultPlanTest, LogToJsonIsWellFormed) {
  FaultPlan plan;
  plan.rules.push_back({.site = "s", .action = ActionKind::kDrop});
  install(plan);
  (void)maybe("s", 2, 5);
  const std::string json = log_to_json();
  EXPECT_NE(json.find("\"site\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"source\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tag\":5"), std::string::npos);
  EXPECT_NE(json.find("\"action\":\"drop\""), std::string::npos);
}

TEST_F(FaultPlanTest, ClearDeactivates) {
  FaultPlan plan;
  plan.rules.push_back({.site = "s"});
  install(plan);
  ASSERT_TRUE(active());
  clear();
  EXPECT_FALSE(active());
  EXPECT_TRUE(maybe("s").none());
  EXPECT_EQ(injected_count(), 0u);
}

}  // namespace
}  // namespace gridse::fault
