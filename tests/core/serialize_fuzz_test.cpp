// Fuzz-style robustness tests for the wire format: arbitrary truncation and
// byte corruption must never crash or return garbage silently — decoding
// either succeeds on intact frames or throws InvalidInput.
#include <gtest/gtest.h>

#include "core/serialize.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gridse::core {
namespace {

std::vector<BusStateRecord> sample_states(Rng& rng, int n) {
  std::vector<BusStateRecord> states;
  for (int i = 0; i < n; ++i) {
    states.push_back({static_cast<std::int32_t>(rng.uniform_int(0, 500)),
                      rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.2)});
  }
  return states;
}

grid::MeasurementSet sample_measurements(Rng& rng, int n) {
  grid::MeasurementSet set;
  set.timestamp = rng.uniform(0, 1e6);
  for (int i = 0; i < n; ++i) {
    grid::Measurement m;
    m.type = static_cast<grid::MeasType>(rng.uniform_int(0, 5));
    m.bus = static_cast<grid::BusIndex>(rng.uniform_int(0, 200));
    m.branch = static_cast<std::int32_t>(rng.uniform_int(-1, 300));
    m.at_from_side = rng.bernoulli(0.5);
    m.value = rng.uniform(-5, 5);
    m.sigma = rng.uniform(1e-4, 1.0);
    set.items.push_back(m);
  }
  return set;
}

TEST(SerializeFuzz, TruncationAlwaysThrowsNeverCrashes) {
  Rng rng(909);
  for (int trial = 0; trial < 50; ++trial) {
    const auto records =
        sample_states(rng, static_cast<int>(rng.uniform_int(0, 40)));
    const auto bytes = encode_boundary_records(records);
    for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
      const std::vector<std::uint8_t> truncated(bytes.begin(),
                                                bytes.begin() + cut);
      EXPECT_THROW((void)decode_boundary_records(truncated), InvalidInput)
          << "cut at " << cut << " of " << bytes.size();
    }
  }
}

TEST(SerializeFuzz, MeasurementTruncationThrows) {
  Rng rng(911);
  const auto set = sample_measurements(rng, 25);
  const auto bytes = encode_measurements(set);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_THROW((void)decode_measurements(truncated), InvalidInput);
  }
}

TEST(SerializeFuzz, RandomCorruptionThrowsOrDecodesConsistentSizes) {
  // Flipping bytes may corrupt values (undetectable without checksums) but
  // must never crash, loop, or return an impossible structure.
  Rng rng(913);
  for (int trial = 0; trial < 200; ++trial) {
    const auto records = sample_states(rng, 10);
    auto bytes = encode_boundary_records(records);
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      const auto decoded = decode_boundary_records(bytes);
      // If the length prefix survived, the count must match.
      EXPECT_EQ(decoded.size(), records.size());
    } catch (const InvalidInput&) {
      // acceptable: corruption detected
    }
  }
}

TEST(SerializeFuzz, OlderCheckpointLayoutRejected) {
  // The older checkpoint layout carried a gain-reuse byte after the cycle and
  // a second record vector (the boundary exports) after step1_states. Such a
  // frame, e.g. a spill file left on disk, must be rejected, never decoded
  // into a shifted garbage checkpoint.
  Rng rng(919);
  for (int trial = 0; trial < 100; ++trial) {
    ByteWriter w;
    w.write(static_cast<std::int32_t>(rng.uniform_int(0, 50)));
    w.write(static_cast<std::int64_t>(rng.uniform_int(0, 1000)));
    w.write(static_cast<std::uint8_t>(rng.bernoulli(0.5) ? 1 : 0));
    const int own = static_cast<int>(rng.uniform_int(0, 30));
    const int exported = static_cast<int>(rng.uniform_int(0, own));
    w.write_vector(sample_states(rng, own));
    w.write_vector(sample_states(rng, exported));
    EXPECT_THROW((void)decode_checkpoint(w.take()), InvalidInput)
        << "trial " << trial;
  }
}

TEST(SerializeFuzz, MeasurementRoundTripRandomized) {
  Rng rng(915);
  for (int trial = 0; trial < 50; ++trial) {
    const auto set = sample_measurements(rng, static_cast<int>(rng.uniform_int(0, 60)));
    const grid::MeasurementSet back = decode_measurements(encode_measurements(set));
    ASSERT_EQ(back.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_EQ(back.items[i].type, set.items[i].type);
      EXPECT_EQ(back.items[i].bus, set.items[i].bus);
      EXPECT_DOUBLE_EQ(back.items[i].value, set.items[i].value);
    }
  }
}

TEST(SerializeFuzz, StateRoundTripRandomized) {
  Rng rng(917);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    grid::GridState s(static_cast<grid::BusIndex>(n));
    for (auto& th : s.theta) th = rng.uniform(-3, 3);
    for (auto& v : s.vm) v = rng.uniform(0.5, 1.5);
    const grid::GridState back = decode_state(encode_state(s));
    EXPECT_EQ(back.theta, s.theta);
    EXPECT_EQ(back.vm, s.vm);
  }
}

TEST(SerializeFuzz, EmptyPayloadRejectedCleanly) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW((void)decode_boundary_records(empty), InvalidInput);
  EXPECT_THROW((void)decode_checkpoint(empty), InvalidInput);
  EXPECT_THROW((void)decode_measurements(empty), InvalidInput);
  EXPECT_THROW((void)decode_state(empty), InvalidInput);
}

}  // namespace
}  // namespace gridse::core
