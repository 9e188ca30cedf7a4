#include "core/serialize.hpp"

#include "util/error.hpp"

namespace gridse::core {

std::vector<std::uint8_t> encode_boundary_records(
    const std::vector<BusStateRecord>& records) {
  ByteWriter w(16 + records.size() * sizeof(BusStateRecord));
  w.write_vector(records);
  return w.take();
}

std::vector<BusStateRecord> decode_boundary_records(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  std::vector<BusStateRecord> records = r.read_vector<BusStateRecord>();
  if (!r.at_end()) {
    throw InvalidInput("decode_boundary_records: trailing bytes in frame");
  }
  return records;
}

std::vector<std::uint8_t> encode_degraded(
    const std::vector<DegradedStatus>& statuses) {
  ByteWriter w(16 + statuses.size() * 32);
  w.write(static_cast<std::uint64_t>(statuses.size()));
  for (const DegradedStatus& st : statuses) {
    w.write(st.subsystem);
    w.write(static_cast<std::uint8_t>(st.missing_redistribution ? 1 : 0));
    w.write_vector(st.missing_neighbors);
  }
  return w.take();
}

std::vector<DegradedStatus> decode_degraded(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const auto count = r.read<std::uint64_t>();
  if (count > bytes.size()) {  // each status needs well over one byte
    throw InvalidInput("decode_degraded: implausible status count");
  }
  std::vector<DegradedStatus> statuses(count);
  for (DegradedStatus& st : statuses) {
    st.subsystem = r.read<std::int32_t>();
    st.missing_redistribution = r.read<std::uint8_t>() != 0;
    st.missing_neighbors = r.read_vector<std::int32_t>();
  }
  if (!r.at_end()) {
    throw InvalidInput("decode_degraded: trailing bytes in frame");
  }
  return statuses;
}

std::vector<std::uint8_t> encode_checkpoint(const EstimatorCheckpoint& ckpt) {
  ByteWriter w(32 + ckpt.step1_states.size() * sizeof(BusStateRecord));
  w.write(ckpt.subsystem);
  w.write(ckpt.cycle);
  w.write_vector(ckpt.step1_states);
  return w.take();
}

EstimatorCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  EstimatorCheckpoint ckpt;
  ckpt.subsystem = r.read<std::int32_t>();
  ckpt.cycle = r.read<std::int64_t>();
  // A frame of the older layout (a gain-reuse byte before step1_states and
  // a second record vector after it) misreads this length prefix and is
  // rejected as truncated or as carrying trailing bytes.
  ckpt.step1_states = r.read_vector<BusStateRecord>();
  if (!r.at_end()) {
    throw InvalidInput("decode_checkpoint: trailing bytes in frame");
  }
  return ckpt;
}

namespace {

/// Wire image of one measurement (kept independent of the in-memory layout
/// so struct padding/reordering can never corrupt frames).
struct MeasurementWire {
  std::uint8_t type;
  std::uint8_t at_from_side;
  std::int32_t bus;
  std::int32_t branch;
  double value;
  double sigma;
};
static_assert(std::is_trivially_copyable_v<MeasurementWire>);

}  // namespace

std::vector<std::uint8_t> encode_measurements(const grid::MeasurementSet& set) {
  ByteWriter w(32 + set.items.size() * sizeof(MeasurementWire));
  w.write(set.timestamp);
  std::vector<MeasurementWire> wire(set.items.size());
  for (std::size_t i = 0; i < set.items.size(); ++i) {
    const grid::Measurement& m = set.items[i];
    wire[i] = {static_cast<std::uint8_t>(m.type),
               static_cast<std::uint8_t>(m.at_from_side ? 1 : 0), m.bus,
               m.branch, m.value, m.sigma};
  }
  w.write_vector(wire);
  return w.take();
}

grid::MeasurementSet decode_measurements(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  grid::MeasurementSet set;
  set.timestamp = r.read<double>();
  const auto wire = r.read_vector<MeasurementWire>();
  if (!r.at_end()) {
    throw InvalidInput("decode_measurements: trailing bytes in frame");
  }
  set.items.reserve(wire.size());
  for (const MeasurementWire& m : wire) {
    if (m.type > static_cast<std::uint8_t>(grid::MeasType::kVAngle)) {
      throw InvalidInput("decode_measurements: unknown measurement type " +
                         std::to_string(m.type));
    }
    set.items.push_back({static_cast<grid::MeasType>(m.type), m.bus, m.branch,
                         m.at_from_side != 0, m.value, m.sigma});
  }
  return set;
}

std::vector<std::uint8_t> encode_state(const grid::GridState& state) {
  ByteWriter w(32 + state.theta.size() * 16);
  w.write_vector(state.theta);
  w.write_vector(state.vm);
  return w.take();
}

grid::GridState decode_state(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  grid::GridState state;
  state.theta = r.read_vector<double>();
  state.vm = r.read_vector<double>();
  if (!r.at_end() || state.theta.size() != state.vm.size()) {
    throw InvalidInput("decode_state: malformed state frame");
  }
  return state;
}

}  // namespace gridse::core
