#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace gridse::core {
namespace {

TEST(Serialize, BusStatesRoundTrip) {
  // 24-byte bus states on the wire after the 8-byte length prefix.
  const std::vector<BusStateRecord> records{
      {0, 0.1, 1.02}, {17, -0.25, 0.98}, {117, 0.0, 1.0}};
  const auto bytes = encode_boundary_records(records);
  EXPECT_EQ(bytes.size(), 8 + records.size() * 24);
  const auto back = decode_boundary_records(bytes);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].bus, records[i].bus);
    EXPECT_DOUBLE_EQ(back[i].theta, records[i].theta);
    EXPECT_DOUBLE_EQ(back[i].vm, records[i].vm);
  }
}

TEST(Serialize, EmptyBusStates) {
  const auto bytes = encode_boundary_records({});
  EXPECT_TRUE(decode_boundary_records(bytes).empty());
}

TEST(Serialize, BusStatesRejectTrailingGarbage) {
  auto bytes = encode_boundary_records({{1, 0.0, 1.0}});
  bytes.push_back(0xff);
  EXPECT_THROW(decode_boundary_records(bytes), InvalidInput);
}

TEST(Serialize, MeasurementsRoundTrip) {
  grid::MeasurementSet set;
  set.timestamp = 42.5;
  set.items.push_back({grid::MeasType::kPFlow, 3, 7, true, 0.5, 0.01});
  set.items.push_back({grid::MeasType::kQFlow, 9, 7, false, -0.2, 0.02});
  set.items.push_back({grid::MeasType::kVAngle, 0, -1, true, 0.05, 0.001});
  const auto bytes = encode_measurements(set);
  const grid::MeasurementSet back = decode_measurements(bytes);
  EXPECT_DOUBLE_EQ(back.timestamp, 42.5);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.items[i].type, set.items[i].type);
    EXPECT_EQ(back.items[i].bus, set.items[i].bus);
    EXPECT_EQ(back.items[i].branch, set.items[i].branch);
    EXPECT_EQ(back.items[i].at_from_side, set.items[i].at_from_side);
    EXPECT_DOUBLE_EQ(back.items[i].value, set.items[i].value);
    EXPECT_DOUBLE_EQ(back.items[i].sigma, set.items[i].sigma);
  }
}

TEST(Serialize, MeasurementsRejectUnknownType) {
  grid::MeasurementSet set;
  set.items.push_back({grid::MeasType::kVMag, 0, -1, true, 1.0, 0.01});
  auto bytes = encode_measurements(set);
  // Corrupt the type byte of the first wire record. Layout after the
  // timestamp (8) and the vector length (8) begins with the type byte.
  bytes[16] = 0x7f;
  EXPECT_THROW(decode_measurements(bytes), InvalidInput);
}

TEST(Serialize, StateRoundTrip) {
  grid::GridState s(3);
  s.theta = {0.1, -0.2, 0.3};
  s.vm = {1.01, 0.99, 1.05};
  const auto bytes = encode_state(s);
  const grid::GridState back = decode_state(bytes);
  EXPECT_EQ(back.theta, s.theta);
  EXPECT_EQ(back.vm, s.vm);
}

TEST(Serialize, StateRejectsMismatchedArrays) {
  ByteWriter w;
  w.write_vector(std::vector<double>{1.0, 2.0});
  w.write_vector(std::vector<double>{1.0});
  EXPECT_THROW(decode_state(w.take()), InvalidInput);
}

TEST(Serialize, TruncatedFrameRejected) {
  const auto bytes = encode_boundary_records({{1, 0.5, 1.0}, {2, 0.1, 1.0}});
  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 5);
  EXPECT_THROW(decode_boundary_records(cut), InvalidInput);
}

TEST(Serialize, CheckpointRoundTrips) {
  EstimatorCheckpoint ckpt;
  ckpt.subsystem = 4;
  ckpt.cycle = 12;
  ckpt.step1_states = {{0, 0.1, 1.02}, {7, -0.25, 0.98}, {117, 0.0, 1.0}};
  const auto bytes = encode_checkpoint(ckpt);
  const EstimatorCheckpoint back = decode_checkpoint(bytes);
  EXPECT_EQ(back.subsystem, 4);
  EXPECT_EQ(back.cycle, 12);
  ASSERT_EQ(back.step1_states.size(), ckpt.step1_states.size());
  for (std::size_t i = 0; i < ckpt.step1_states.size(); ++i) {
    EXPECT_EQ(back.step1_states[i].bus, ckpt.step1_states[i].bus);
    EXPECT_DOUBLE_EQ(back.step1_states[i].theta, ckpt.step1_states[i].theta);
    EXPECT_DOUBLE_EQ(back.step1_states[i].vm, ckpt.step1_states[i].vm);
  }
}

TEST(Serialize, DefaultCheckpointRoundTrips) {
  const EstimatorCheckpoint back = decode_checkpoint(
      encode_checkpoint(EstimatorCheckpoint{}));
  EXPECT_EQ(back.subsystem, -1);
  EXPECT_EQ(back.cycle, -1);
  EXPECT_TRUE(back.step1_states.empty());
}

TEST(Serialize, CheckpointRejectsMalformedFrames) {
  EstimatorCheckpoint ckpt;
  ckpt.subsystem = 2;
  ckpt.step1_states = {{1, 0.0, 1.0}};
  const auto bytes = encode_checkpoint(ckpt);
  auto truncated = std::vector<std::uint8_t>(bytes.begin(), bytes.end() - 3);
  EXPECT_THROW(decode_checkpoint(truncated), InvalidInput);
  auto trailing = bytes;
  trailing.push_back(0xee);
  EXPECT_THROW(decode_checkpoint(trailing), InvalidInput);
  EXPECT_THROW(decode_checkpoint({}), InvalidInput);
}

}  // namespace
}  // namespace gridse::core
