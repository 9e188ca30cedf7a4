// Seeded mutation fuzz over the plan JSON parsers: every truncated,
// bit-flipped or byte-inserted plan must either parse or throw
// InvalidInput — never crash, hang, or surface another exception type. A
// replay plan that parses must round-trip through to_json().
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "../fuzz_mutation.hpp"
#include "fault/fault.hpp"
#include "fault/topology_replay.hpp"
#include "io/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gridse::fault {
namespace {

constexpr int kMutationsPerSeed = 400;

/// The characters that carry JSON's syntax.
constexpr std::string_view kJsonSignificant = "{}[]\",:.-+eE0123456789";

std::string mutate(const std::string& text, Rng& rng) {
  return fuzz::mutate(text, rng, kJsonSignificant);
}

TEST(TopologyReplayPlanFuzz, MutatedPlansThrowOrRoundTrip) {
  const io::GeneratedCase gc = io::ieee118_dse();
  const std::string json =
      TopologyReplayPlan::generate(gc.kase.network, 5).to_json();
  int parsed = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const std::string text = mutate(json, rng);
      try {
        const TopologyReplayPlan plan = TopologyReplayPlan::parse(text);
        const TopologyReplayPlan again =
            TopologyReplayPlan::parse(plan.to_json());
        EXPECT_EQ(again.seed, plan.seed) << text;
        EXPECT_EQ(again.events, plan.events) << text;
        ++parsed;
      } catch (const InvalidInput&) {
        // Rejected loudly: the only acceptable failure.
      }
    }
  }
  // Some mutations (e.g. a flipped digit) leave a valid plan.
  EXPECT_GT(parsed, 0);
}

TEST(FaultPlanFuzz, MutatedPlansThrowOrParse) {
  // The example plan of docs/RESILIENCE.md ("Fault plans").
  const std::string json =
      R"({"seed": 5, "rules": [
  {"site": "client.send", "action": "drop", "source": 1,
   "tag_min": 16, "tag_max": 106}
]})";
  ASSERT_NO_THROW(FaultPlan::parse(json));
  int parsed = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const std::string text = mutate(json, rng);
      try {
        const FaultPlan plan = FaultPlan::parse(text);
        for (const FaultRule& rule : plan.rules) {
          EXPECT_FALSE(rule.site.empty()) << text;
        }
        ++parsed;
      } catch (const InvalidInput&) {
      }
    }
  }
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace gridse::fault
