#include "runtime/resilience.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/error.hpp"

namespace gridse::runtime {
namespace {

/// Clear every env var these tests set, restore nothing: tests set exactly
/// what they need and the fixture guarantees a clean slate.
class ResilienceEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }

  static void clear() {
    for (const char* name :
         {"GRIDSE_BARRIER_TIMEOUT_MS", "GRIDSE_EXCHANGE_DEADLINE_MS",
          "GRIDSE_RECOVERY", "GRIDSE_HEARTBEAT_PERIOD_MS",
          "GRIDSE_HEARTBEAT_TIMEOUT_MS", "GRIDSE_HEARTBEAT_ROUNDS",
          "GRIDSE_REJOIN_EPOCH", "GRIDSE_CHECKPOINT_DIR",
          "GRIDSE_CYCLE_DEADLINE_MS", "GRIDSE_PHASE_BUDGET_STEP2_MS"}) {
      ::unsetenv(name);
    }
  }
};

TEST(ParseEnvMs, AcceptsNonNegativeIntegers) {
  EXPECT_EQ(parse_env_ms("X", "0"), std::chrono::milliseconds{0});
  EXPECT_EQ(parse_env_ms("X", "1500"), std::chrono::milliseconds{1500});
}

TEST(ParseEnvMs, RejectsNegative) {
  EXPECT_THROW(parse_env_ms("GRIDSE_EXCHANGE_DEADLINE_MS", "-1"),
               InvalidInput);
}

TEST(ParseEnvMs, RejectsNonNumeric) {
  EXPECT_THROW(parse_env_ms("X", "soon"), InvalidInput);
  EXPECT_THROW(parse_env_ms("X", "12abc"), InvalidInput);
  EXPECT_THROW(parse_env_ms("X", ""), InvalidInput);
  EXPECT_THROW(parse_env_ms("X", "1.5"), InvalidInput);
}

TEST(ParseEnvMs, ErrorNamesTheVariable) {
  try {
    parse_env_ms("GRIDSE_BARRIER_TIMEOUT_MS", "nope");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("GRIDSE_BARRIER_TIMEOUT_MS"),
              std::string::npos);
  }
}

TEST(ParseEnvInt, EnforcesMinimum) {
  EXPECT_EQ(parse_env_int("X", "3", 1), 3);
  EXPECT_EQ(parse_env_int("X", "1", 1), 1);
  EXPECT_THROW(parse_env_int("X", "0", 1), InvalidInput);
  EXPECT_THROW(parse_env_int("X", "-4", 1), InvalidInput);
}

TEST(ParseEnvInt, RejectsNonNumericAndOverflow) {
  EXPECT_THROW(parse_env_int("X", "two", 0), InvalidInput);
  EXPECT_THROW(parse_env_int("X", "99999999999999999999", 0), InvalidInput);
}

TEST(ParseEnvFlag, AcceptsCanonicalSpellings) {
  EXPECT_TRUE(parse_env_flag("X", "1"));
  EXPECT_TRUE(parse_env_flag("X", "on"));
  EXPECT_TRUE(parse_env_flag("X", "true"));
  EXPECT_FALSE(parse_env_flag("X", "0"));
  EXPECT_FALSE(parse_env_flag("X", "off"));
  EXPECT_FALSE(parse_env_flag("X", "false"));
}

TEST(ParseEnvFlag, RejectsAnythingElse) {
  EXPECT_THROW(parse_env_flag("X", "yes"), InvalidInput);
  EXPECT_THROW(parse_env_flag("X", "ON"), InvalidInput);
  EXPECT_THROW(parse_env_flag("X", ""), InvalidInput);
  EXPECT_THROW(parse_env_flag("X", "2"), InvalidInput);
}

TEST_F(ResilienceEnvTest, NoOverridesLeavesConfigUntouched) {
  ResilienceConfig base;
  base.recovery.heartbeat_rounds = 5;
  const ResilienceConfig out = with_env_overrides(base);
  EXPECT_EQ(exchange_deadline_with_env(std::chrono::milliseconds{123}),
            std::chrono::milliseconds{123});
  EXPECT_EQ(out.barrier_timeout, base.barrier_timeout);
  EXPECT_FALSE(out.recovery.enabled);
  EXPECT_EQ(out.recovery.heartbeat_rounds, 5);
}

TEST_F(ResilienceEnvTest, AppliesEveryRecoveryOverride) {
  ::setenv("GRIDSE_BARRIER_TIMEOUT_MS", "777", 1);
  ::setenv("GRIDSE_EXCHANGE_DEADLINE_MS", "888", 1);
  ::setenv("GRIDSE_RECOVERY", "on", 1);
  ::setenv("GRIDSE_HEARTBEAT_PERIOD_MS", "7", 1);
  ::setenv("GRIDSE_HEARTBEAT_TIMEOUT_MS", "99", 1);
  ::setenv("GRIDSE_HEARTBEAT_ROUNDS", "4", 1);
  ::setenv("GRIDSE_REJOIN_EPOCH", "2", 1);
  ::setenv("GRIDSE_CHECKPOINT_DIR", "/tmp/ckpt", 1);
  const ResilienceConfig out = with_env_overrides(ResilienceConfig{});
  EXPECT_EQ(out.barrier_timeout, std::chrono::milliseconds{777});
  EXPECT_EQ(exchange_deadline_with_env(std::chrono::milliseconds{0}),
            std::chrono::milliseconds{888});
  EXPECT_TRUE(out.recovery.enabled);
  EXPECT_EQ(out.recovery.heartbeat_period, std::chrono::milliseconds{7});
  EXPECT_EQ(out.recovery.heartbeat_timeout, std::chrono::milliseconds{99});
  EXPECT_EQ(out.recovery.heartbeat_rounds, 4);
  EXPECT_EQ(out.recovery.rejoin_epoch, 2);
  EXPECT_EQ(out.recovery.checkpoint_dir, "/tmp/ckpt");
}

TEST_F(ResilienceEnvTest, RejectsMalformedValuesLoudly) {
  ::setenv("GRIDSE_EXCHANGE_DEADLINE_MS", "-50", 1);
  EXPECT_THROW(exchange_deadline_with_env(std::chrono::milliseconds{0}),
               InvalidInput);
  clear();
  ::setenv("GRIDSE_BARRIER_TIMEOUT_MS", "fast", 1);
  EXPECT_THROW(with_env_overrides(ResilienceConfig{}), InvalidInput);
  clear();
  ::setenv("GRIDSE_HEARTBEAT_ROUNDS", "0", 1);
  EXPECT_THROW(with_env_overrides(ResilienceConfig{}), InvalidInput);
  clear();
  ::setenv("GRIDSE_RECOVERY", "maybe", 1);
  EXPECT_THROW(with_env_overrides(ResilienceConfig{}), InvalidInput);
}

TEST_F(ResilienceEnvTest, EmptyValueIsIgnored) {
  ::setenv("GRIDSE_EXCHANGE_DEADLINE_MS", "", 1);
  EXPECT_EQ(exchange_deadline_with_env(std::chrono::milliseconds{0}),
            std::chrono::milliseconds{0});
}

TEST_F(ResilienceEnvTest, ExchangeDeadlineEnvBeatsConfig) {
  ::setenv("GRIDSE_EXCHANGE_DEADLINE_MS", "250", 1);
  EXPECT_EQ(exchange_deadline_with_env(std::chrono::milliseconds{5000}),
            std::chrono::milliseconds{250});
}

TEST_F(ResilienceEnvTest, SloEnvBeatsConfigPerThreshold) {
  SloConfig base;
  base.cycle_deadline = std::chrono::milliseconds{60'000};
  base.step1_budget = std::chrono::milliseconds{40};
  ::setenv("GRIDSE_CYCLE_DEADLINE_MS", "1", 1);
  ::setenv("GRIDSE_PHASE_BUDGET_STEP2_MS", "7", 1);
  const SloConfig out = with_env_overrides(base);
  EXPECT_EQ(out.cycle_deadline, std::chrono::milliseconds{1});
  EXPECT_EQ(out.step1_budget, std::chrono::milliseconds{40});
  EXPECT_EQ(out.step2_budget, std::chrono::milliseconds{7});
  EXPECT_EQ(out.exchange_budget, std::chrono::milliseconds{0});
}

}  // namespace
}  // namespace gridse::runtime
