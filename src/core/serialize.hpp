#pragma once

#include <vector>

#include "grid/measurement.hpp"
#include "grid/state.hpp"
#include "util/byte_buffer.hpp"

namespace gridse::core {

/// One bus's solved state ("bus voltage, phase angle"), global bus
/// numbering: the unit of the Step-2 pseudo-measurement exchange and of the
/// redistribution, combine and checkpoint payloads.
struct BusStateRecord {
  std::int32_t bus = -1;
  double theta = 0.0;
  double vm = 0.0;
};
static_assert(std::is_trivially_copyable_v<BusStateRecord>);

/// Serialize/deserialize a batch of boundary records (one pseudo-measurement
/// frame): a length prefix and 24-byte BusStateRecord images. Decoding
/// rejects a truncated frame or one with trailing bytes.
std::vector<std::uint8_t> encode_boundary_records(
    const std::vector<BusStateRecord>& records);
std::vector<BusStateRecord> decode_boundary_records(
    const std::vector<std::uint8_t>& bytes);

/// Health record of one subsystem whose Step 2 ran degraded: some neighbour
/// pseudo-measurements never arrived (re-solved with Step-1 priors), or its
/// re-mapping redistribution payload was lost (subsystem skipped entirely).
/// Shipped inside the combine payload so every rank ends the cycle with the
/// full degradation picture.
struct DegradedStatus {
  std::int32_t subsystem = -1;
  /// Neighbour subsystems whose pseudo measurements were missing/corrupt.
  std::vector<std::int32_t> missing_neighbors;
  /// True when the Step-1 solution never reached the Step-2 host.
  bool missing_redistribution = false;
};

/// Serialize/deserialize a batch of degradation records.
std::vector<std::uint8_t> encode_degraded(
    const std::vector<DegradedStatus>& statuses);
std::vector<DegradedStatus> decode_degraded(
    const std::vector<std::uint8_t>& bytes);

/// Warm-restart checkpoint of one subsystem's estimator, collected at the
/// end of every recovered cycle and stored by the supervisor. A rank that
/// (re)hosts the subsystem warm-starts its next Step-1 solve from
/// `step1_states` instead of cold-starting from a flat profile.
struct EstimatorCheckpoint {
  std::int32_t subsystem = -1;
  /// Cycle index the checkpoint was taken at; the store keeps the newest.
  std::int64_t cycle = -1;
  /// Per-bus solution over all own buses (global numbering), Step-2-refined
  /// where available.
  std::vector<BusStateRecord> step1_states;
};

/// Serialize/deserialize one estimator checkpoint.
std::vector<std::uint8_t> encode_checkpoint(const EstimatorCheckpoint& ckpt);
EstimatorCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& bytes);

/// Serialize/deserialize a measurement set (for the Step-1→Step-2
/// raw-measurement redistribution when a subsystem is re-mapped).
std::vector<std::uint8_t> encode_measurements(const grid::MeasurementSet& set);
grid::MeasurementSet decode_measurements(const std::vector<std::uint8_t>& bytes);

/// Serialize/deserialize a full grid state.
std::vector<std::uint8_t> encode_state(const grid::GridState& state);
grid::GridState decode_state(const std::vector<std::uint8_t>& bytes);

}  // namespace gridse::core
