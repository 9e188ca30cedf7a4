#include "core/supervisor.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "analysis/assert.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::core {
namespace fs = std::filesystem;

namespace {

fs::path spill_path(const std::string& dir, int subsystem) {
  return fs::path(dir) / ("ckpt_s" + std::to_string(subsystem) + ".bin");
}

}  // namespace

CheckpointStore::CheckpointStore(std::string spill_dir)
    : spill_dir_(std::move(spill_dir)) {}

void CheckpointStore::store_locked(EstimatorCheckpoint ckpt, bool spill) {
  GRIDSE_ASSERT_HELD(mutex_);
  if (ckpt.subsystem < 0) {
    return;
  }
  const auto it = latest_.find(ckpt.subsystem);
  if (it != latest_.end() && it->second.cycle > ckpt.cycle) {
    return;  // stale: a newer cycle's checkpoint is already stored
  }
  if (spill && !spill_dir_.empty()) {
    try {
      fs::create_directories(spill_dir_);
      const auto bytes = encode_checkpoint(ckpt);
      std::ofstream out(spill_path(spill_dir_, ckpt.subsystem),
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    } catch (const std::exception& e) {
      GRIDSE_WARN << "checkpoint spill for subsystem " << ckpt.subsystem
                  << " failed: " << e.what();
    }
  }
  latest_[ckpt.subsystem] = std::move(ckpt);
}

void CheckpointStore::store(EstimatorCheckpoint ckpt) {
  analysis::LockGuard lock(mutex_);
  store_locked(std::move(ckpt), /*spill=*/true);
}

std::optional<EstimatorCheckpoint> CheckpointStore::latest(
    int subsystem) const {
  analysis::LockGuard lock(mutex_);
  const auto it = latest_.find(subsystem);
  if (it == latest_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::map<int, EstimatorCheckpoint> CheckpointStore::snapshot() const {
  analysis::LockGuard lock(mutex_);
  return latest_;
}

std::size_t CheckpointStore::load_spilled() {
  if (spill_dir_.empty() || !fs::is_directory(spill_dir_)) {
    return 0;
  }
  std::size_t loaded = 0;
  analysis::LockGuard lock(mutex_);
  for (const auto& entry : fs::directory_iterator(spill_dir_)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name.rfind("ckpt_s", 0) != 0 ||
        entry.path().extension() != ".bin") {
      continue;
    }
    try {
      std::ifstream in(entry.path(), std::ios::binary);
      std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      EstimatorCheckpoint ckpt = decode_checkpoint(bytes);
      const auto it = latest_.find(ckpt.subsystem);
      if (ckpt.subsystem >= 0 &&
          (it == latest_.end() || it->second.cycle <= ckpt.cycle)) {
        latest_[ckpt.subsystem] = std::move(ckpt);
        ++loaded;
      }
    } catch (const std::exception& e) {
      GRIDSE_WARN << "skipping corrupt checkpoint spill " << name << ": "
                  << e.what();
    }
  }
  return loaded;
}

Supervisor::Supervisor(int num_clusters, runtime::RecoveryConfig config)
    : config_(std::move(config)),
      states_(static_cast<std::size_t>(std::max(num_clusters, 0)),
              runtime::RankState::kAlive),
      rejoin_ready_(states_.size(), -1),
      store_(config_.checkpoint_dir) {
  GRIDSE_CHECK_MSG(num_clusters > 0,
                   "supervisor needs at least one cluster");
}

void Supervisor::set_alert_sink(AlertSink sink) {
  analysis::LockGuard lock(mutex_);
  sink_ = std::move(sink);
}

std::vector<int> Supervisor::begin_cycle() {
  std::vector<int> participants;
  std::vector<int> rejoined;
  AlertSink sink;
  {
    analysis::LockGuard lock(mutex_);
    sink = sink_;
    ++epoch_;
    for (std::size_t c = 0; c < states_.size(); ++c) {
      if (states_[c] == runtime::RankState::kRejoining &&
          rejoin_ready_[c] >= 0 && rejoin_ready_[c] <= epoch_) {
        states_[c] = runtime::RankState::kAlive;
        rejoin_ready_[c] = -1;
        ++rejoins_;
        rejoined.push_back(static_cast<int>(c));
        OBS_COUNTER_ADD("recovery.rejoins", 1);
        OBS_EVENT("recovery.rejoined",
                  OBS_ATTR("cluster", static_cast<int>(c)),
                  OBS_ATTR("epoch", static_cast<int>(epoch_)));
      }
      if (states_[c] == runtime::RankState::kAlive) {
        participants.push_back(static_cast<int>(c));
      }
    }
    GRIDSE_CHECK_MSG(!participants.empty(),
                     "recovery: every cluster is dead — nothing can host the "
                     "estimation");
  }
  if (sink) {
    for (const int c : rejoined) {
      sink("rejoin", c);
    }
  }
  return participants;
}

std::vector<graph::PartId> Supervisor::project_assignment(
    const std::vector<graph::PartId>& cluster_assignment,
    const std::vector<int>& participants,
    std::vector<int>* migrated) const {
  analysis::LockGuard lock(mutex_);
  std::vector<int> compact(states_.size(), -1);
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const int c = participants[i];
    GRIDSE_CHECK_MSG(c >= 0 && c < static_cast<int>(states_.size()),
                     "participant cluster id out of range");
    compact[static_cast<std::size_t>(c)] = static_cast<int>(i);
  }
  std::vector<graph::PartId> out(cluster_assignment.size(), 0);
  std::vector<int> load(participants.size(), 0);
  std::vector<std::size_t> orphans;
  for (std::size_t s = 0; s < cluster_assignment.size(); ++s) {
    const graph::PartId c = cluster_assignment[s];
    const int idx = (c >= 0 && c < static_cast<graph::PartId>(compact.size()))
                        ? compact[static_cast<std::size_t>(c)]
                        : -1;
    if (idx >= 0) {
      out[s] = static_cast<graph::PartId>(idx);
      ++load[static_cast<std::size_t>(idx)];
    } else {
      orphans.push_back(s);
    }
  }
  // Orphans (their cluster died) migrate greedily to the least-loaded
  // survivor — by subsystem count, the same balance notion the remapped
  // METIS partition will then improve on the following cycle.
  for (const std::size_t s : orphans) {
    const auto target = std::min_element(load.begin(), load.end());
    const auto idx = static_cast<std::size_t>(target - load.begin());
    out[s] = static_cast<graph::PartId>(idx);
    ++load[idx];
    if (migrated != nullptr) {
      migrated->push_back(static_cast<int>(s));
    }
    OBS_COUNTER_ADD("recovery.orphans_migrated", 1);
    OBS_EVENT("recovery.remap", OBS_ATTR("subsystem", static_cast<int>(s)),
              OBS_ATTR("from", cluster_assignment[s]),
              OBS_ATTR("to", participants[idx]));
  }
  // A rejoined cluster arrives with an empty part (nothing hosted there the
  // previous cycle), which the repartitioner rejects as input. Seed every
  // empty part with one subsystem from the most-loaded survivor — a
  // deterministic minimal hand-off the refinement then rebalances properly.
  for (std::size_t p = 0; p < load.size(); ++p) {
    if (load[p] > 0) continue;
    const auto donor_it = std::max_element(load.begin(), load.end());
    const auto donor = static_cast<std::size_t>(donor_it - load.begin());
    if (load[donor] <= 1) continue;  // fewer subsystems than parts
    for (std::size_t s = 0; s < out.size(); ++s) {
      if (static_cast<std::size_t>(out[s]) != donor) continue;
      out[s] = static_cast<graph::PartId>(p);
      --load[donor];
      ++load[p];
      if (migrated != nullptr) {
        migrated->push_back(static_cast<int>(s));
      }
      OBS_EVENT("recovery.remap", OBS_ATTR("subsystem", static_cast<int>(s)),
                OBS_ATTR("from", participants[donor]),
                OBS_ATTR("to", participants[p]));
      break;
    }
  }
  return out;
}

void Supervisor::absorb(const DseRecoveryResult& recovery,
                        const std::vector<int>& participants) {
  for (const EstimatorCheckpoint& ckpt : recovery.checkpoints) {
    store_.store(ckpt);
  }
  if (!recovery.enabled) {
    return;
  }
  std::vector<int> died;
  AlertSink sink;
  {
    analysis::LockGuard lock(mutex_);
    sink = sink_;
    for (const int r : recovery.membership.dead_ranks()) {
      if (r < 0 || r >= static_cast<int>(participants.size())) continue;
      const int cluster = participants[static_cast<std::size_t>(r)];
      if (mark_dead_locked(cluster, "heartbeat")) {
        died.push_back(cluster);
      }
    }
#if GRIDSE_OBS
    for (const int r : recovery.membership.suspect_ranks()) {
      if (r < 0 || r >= static_cast<int>(participants.size())) continue;
      OBS_EVENT(
          "recovery.cluster_suspect",
          OBS_ATTR("cluster", participants[static_cast<std::size_t>(r)]));
    }
#endif
  }
  if (sink) {
    for (const int c : died) {
      sink("cluster_dead", c);
    }
  }
}

void Supervisor::kill_cluster(int cluster) {
  bool died = false;
  AlertSink sink;
  {
    analysis::LockGuard lock(mutex_);
    sink = sink_;
    died = mark_dead_locked(cluster, "operator");
  }
  if (died && sink) {
    sink("cluster_dead", cluster);
  }
}

void Supervisor::announce_rejoin(int cluster) {
  analysis::LockGuard lock(mutex_);
  GRIDSE_CHECK_MSG(cluster >= 0 && cluster < static_cast<int>(states_.size()),
                   "announce_rejoin: cluster id out of range");
  if (states_[static_cast<std::size_t>(cluster)] != runtime::RankState::kDead) {
    return;  // only a dead cluster has anything to rejoin
  }
  states_[static_cast<std::size_t>(cluster)] = runtime::RankState::kRejoining;
  rejoin_ready_[static_cast<std::size_t>(cluster)] =
      epoch_ + std::max(config_.rejoin_epoch, 1);
  OBS_EVENT("recovery.rejoin_announced", OBS_ATTR("cluster", cluster),
            OBS_ATTR("ready_epoch",
                     static_cast<int>(
                         rejoin_ready_[static_cast<std::size_t>(cluster)])));
}

runtime::RankState Supervisor::state_of(int cluster) const {
  analysis::LockGuard lock(mutex_);
  GRIDSE_CHECK_MSG(cluster >= 0 && cluster < static_cast<int>(states_.size()),
                   "state_of: cluster id out of range");
  return states_[static_cast<std::size_t>(cluster)];
}

bool Supervisor::mark_dead_locked(int cluster, const char* reason) {
  GRIDSE_ASSERT_HELD(mutex_);
  GRIDSE_CHECK_MSG(cluster >= 0 && cluster < static_cast<int>(states_.size()),
                   "mark_dead: cluster id out of range");
  if (states_[static_cast<std::size_t>(cluster)] == runtime::RankState::kDead) {
    return false;
  }
  states_[static_cast<std::size_t>(cluster)] = runtime::RankState::kDead;
  rejoin_ready_[static_cast<std::size_t>(cluster)] = -1;
  ++remaps_;
  OBS_COUNTER_ADD("recovery.remaps", 1);
  OBS_EVENT("recovery.cluster_dead", OBS_ATTR("cluster", cluster),
            OBS_ATTR("reason", reason));
  (void)reason;
  return true;
}

}  // namespace gridse::core
