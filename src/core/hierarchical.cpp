#include "core/hierarchical.hpp"

#include <map>
#include <memory>

#include "analysis/debug_sync.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gridse::core {
namespace {

constexpr int kUpTag = 1 << 16;        // BA -> coordinator
constexpr int kDownTag = (1 << 16) + 1;  // coordinator -> BA

/// Sigma assigned to subsystem solutions when the coordinator treats them
/// as pseudo measurements (|V| and θ).
constexpr double kSolutionSigma = 0.005;
/// Worker threads per cluster for the hosted local estimations.
constexpr std::size_t kWorkersPerCluster = 3;

}  // namespace

HierarchicalDriver::HierarchicalDriver(
    const grid::Network& network, const decomp::Decomposition& decomposition)
    : network_(&network), decomposition_(&decomposition) {}

HierarchicalResult HierarchicalDriver::run(
    runtime::Communicator& comm,
    const grid::MeasurementSet& global_measurements,
    std::span<const graph::PartId> assignment) const {
  const int m = decomposition_->num_subsystems();
  const int rank = comm.rank();
  GRIDSE_CHECK(static_cast<int>(assignment.size()) == m);

  const std::size_t bytes_before = comm.bytes_sent();
  Timer total_timer;
  HierarchicalResult result;

  std::vector<int> hosted;
  for (int s = 0; s < m; ++s) {
    if (assignment[static_cast<std::size_t>(s)] == rank) hosted.push_back(s);
  }

  // --- local estimations (same Step 1 as the distributed mode) ---------------
  Timer step1_timer;
  const decomp::MeasurementRoute route = decomp::route_measurements(
      *decomposition_, *network_, global_measurements);
  std::map<int, std::unique_ptr<LocalEstimator>> estimators;
  bool local_ok = true;
  {
    ThreadPool pool(kWorkersPerCluster);
    for (const int s : hosted) {
      estimators.emplace(s, std::make_unique<LocalEstimator>(
                                *network_, *decomposition_, s,
                                LocalEstimatorOptions{}));
    }
    analysis::Mutex ok_mutex{"HierarchicalDriver::ok_mutex"};
    pool.parallel_for(hosted.size(), [&](std::size_t i) {
      const LocalSolveInfo info =
          estimators.at(hosted[i])->run_step1(global_measurements, route);
      analysis::LockGuard lock(ok_mutex);
      local_ok &= info.converged;
    });
  }
  comm.barrier();
  result.step1_seconds = step1_timer.seconds();

  // --- upward data exchange: solutions to the coordinator --------------------
  Timer coord_timer;
  std::vector<BusStateRecord> my_records;
  for (const int s : hosted) {
    const auto records = estimators.at(s)->step1_all_states();
    my_records.insert(my_records.end(), records.begin(), records.end());
  }
  if (rank != 0) {
    ByteWriter w;
    w.write(static_cast<std::uint8_t>(local_ok ? 1 : 0));
    w.write_vector(my_records);
    comm.send(0, kUpTag, w.take());
  }

  if (rank == 0) {
    // Coordinator: assemble, re-evaluate, broadcast.
    grid::GridState assembled(network_->num_buses());
    bool all_ok = local_ok;
    const auto apply = [&](const std::vector<BusStateRecord>& records) {
      for (const BusStateRecord& rec : records) {
        assembled.theta[static_cast<std::size_t>(rec.bus)] = rec.theta;
        assembled.vm[static_cast<std::size_t>(rec.bus)] = rec.vm;
      }
    };
    apply(my_records);
    for (int r = 1; r < comm.size(); ++r) {
      const runtime::Message msg = comm.recv(r, kUpTag);
      ByteReader reader(msg.payload);
      all_ok &= reader.read<std::uint8_t>() != 0;
      apply(reader.read_vector<BusStateRecord>());
    }

    // Coordination measurement set: subsystem solutions as pseudo
    // measurements at every bus, plus the real tie-line flow telemetry the
    // coordinator owns.
    grid::MeasurementSet coord_set;
    coord_set.timestamp = global_measurements.timestamp;
    for (grid::BusIndex b = 0; b < network_->num_buses(); ++b) {
      coord_set.items.push_back({grid::MeasType::kVMag, b, -1, true,
                                 assembled.vm[static_cast<std::size_t>(b)],
                                 kSolutionSigma});
      coord_set.items.push_back({grid::MeasType::kVAngle, b, -1, true,
                                 assembled.theta[static_cast<std::size_t>(b)],
                                 kSolutionSigma});
    }
    for (const std::size_t tie : decomposition_->tie_lines) {
      for (const grid::Measurement& meas : global_measurements.items) {
        if ((meas.type == grid::MeasType::kPFlow ||
             meas.type == grid::MeasType::kQFlow) &&
            meas.branch == static_cast<std::int32_t>(tie)) {
          coord_set.items.push_back(meas);
        }
      }
    }
    const estimation::WlsEstimator coordinator(*network_,
                                               estimation::WlsOptions{});
    const estimation::WlsResult refined =
        coordinator.estimate(coord_set, assembled);
    result.state = refined.state;
    result.all_converged = all_ok && refined.converged;

    ByteWriter w;
    w.write(static_cast<std::uint8_t>(result.all_converged ? 1 : 0));
    w.write_vector(encode_state(result.state));
    const auto payload = w.take();
    for (int r = 1; r < comm.size(); ++r) {
      comm.send(r, kDownTag, payload);
    }
  } else {
    const runtime::Message msg = comm.recv(0, kDownTag);
    ByteReader reader(msg.payload);
    result.all_converged = reader.read<std::uint8_t>() != 0;
    result.state = decode_state(reader.read_vector<std::uint8_t>());
  }
  comm.barrier();
  result.coordination_seconds = coord_timer.seconds();
  result.total_seconds = total_timer.seconds();
  result.bytes_sent = comm.bytes_sent() - bytes_before;
  return result;
}

}  // namespace gridse::core
