#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/debug_sync.hpp"
#include "core/dse_driver.hpp"
#include "core/serialize.hpp"
#include "graph/partition.hpp"
#include "runtime/recovery.hpp"
#include "runtime/resilience.hpp"

namespace gridse::core {

/// Newest-wins checkpoint store: one EstimatorCheckpoint per subsystem,
/// replaced whenever a checkpoint from a later (or equal) cycle arrives.
/// With a spill directory configured every stored checkpoint is also written
/// to `<dir>/ckpt_s<subsystem>.bin` (the encode_checkpoint frame), so a
/// restarted supervisor process can be re-seeded from disk.
///
/// Thread-safe: checkpoints arrive from the cycle thread while operator
/// tooling (kill/rejoin consoles, tests) may snapshot concurrently.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string spill_dir = {});

  /// Keep `ckpt` if it is at least as new as the stored one (or the first
  /// for its subsystem). Checkpoints with a negative subsystem are ignored.
  void store(EstimatorCheckpoint ckpt);

  /// Newest checkpoint for `subsystem`, or nullopt when none was stored.
  /// Returns a copy: a pointer into the store would dangle the moment a
  /// newer checkpoint replaces the entry on another thread.
  [[nodiscard]] std::optional<EstimatorCheckpoint> latest(int subsystem) const;

  /// Copy of the full store, keyed by subsystem — the restore plan shape
  /// consumed by DseRecoveryContext.
  [[nodiscard]] std::map<int, EstimatorCheckpoint> snapshot() const;

  /// Re-load every `ckpt_s*.bin` frame found in the spill directory
  /// (newest-wins against what is already in memory). Returns how many
  /// files decoded successfully; corrupt files are skipped.
  std::size_t load_spilled();

  [[nodiscard]] std::size_t size() const {
    analysis::LockGuard lock(mutex_);
    return latest_.size();
  }
  [[nodiscard]] const std::string& spill_dir() const { return spill_dir_; }

 private:
  /// Newest-wins merge of `ckpt` into latest_ plus the spill write; shared
  /// by store() and load_spilled().
  void store_locked(EstimatorCheckpoint ckpt, bool spill)
      GRIDSE_REQUIRES(mutex_);

  std::string spill_dir_;
  mutable analysis::Mutex mutex_{"CheckpointStore::mutex_"};
  std::map<int, EstimatorCheckpoint> latest_ GRIDSE_GUARDED_BY(mutex_);
};

/// Cross-cycle recovery coordinator (one per DseSystem, logically co-located
/// with rank 0). Tracks each cluster through the failure-detector state
/// machine alive → suspect → dead → rejoining → alive, stores the newest
/// checkpoint per subsystem, and — after a confirmed cluster loss — shrinks
/// the participant set so the next cycle's mapping re-runs over survivors
/// only, with orphaned subsystems migrated (their checkpoints shipped by the
/// driver's restore phase). See docs/RESILIENCE.md, "Recovery & remapping".
class Supervisor {
 public:
  Supervisor(int num_clusters, runtime::RecoveryConfig config);

  /// Open a new remap epoch: clusters whose rejoin wait elapsed flip
  /// rejoining → alive, then the sorted ids of all alive clusters are
  /// returned — the cycle's participants, index in this vector == comm rank.
  std::vector<int> begin_cycle();

  /// Project a cluster-space assignment onto the compact rank space of
  /// `participants`. Subsystems on a surviving cluster keep that cluster's
  /// compact index; orphans (their cluster absent from `participants`) go
  /// greedily to the least-loaded surviving rank. `migrated`, when non-null,
  /// collects the orphaned subsystem ids.
  [[nodiscard]] std::vector<graph::PartId> project_assignment(
      const std::vector<graph::PartId>& cluster_assignment,
      const std::vector<int>& participants,
      std::vector<int>* migrated = nullptr) const;

  /// Ingest one cycle's recovery outputs: store the gathered checkpoints
  /// and confirm deaths — every comm rank the membership view marks dead
  /// maps through `participants` back to its cluster, which transitions to
  /// dead (a remap is then due next cycle).
  void absorb(const DseRecoveryResult& recovery,
              const std::vector<int>& participants);

  /// Operator/simulated confirmed death: the cluster leaves the participant
  /// set at the next begin_cycle.
  void kill_cluster(int cluster);

  /// A recovered cluster announces itself. It is held in `rejoining` and
  /// folded back in `rejoin_epoch` epochs later (next begin_cycle with the
  /// default of 1), at which point the restore plan warm-starts whatever
  /// the new mapping places on it.
  void announce_rejoin(int cluster);

  /// Observer of state-machine transitions: invoked with kind
  /// "cluster_dead" or "rejoin" and the affected cluster id, strictly
  /// AFTER mutex_ is released (the sink may do I/O or take its own locks).
  /// Deliberately obs-free — DseSystem wires it to the telemetry flight
  /// recorder under GRIDSE_OBS, so gridse_core itself stays free of obs
  /// symbols in an OBS=OFF build. Install before the first cycle; not
  /// synchronized against in-flight transitions during replacement.
  using AlertSink = std::function<void(const char* kind, int cluster)>;
  void set_alert_sink(AlertSink sink);

  [[nodiscard]] runtime::RankState state_of(int cluster) const;
  /// Snapshot of every cluster's state. Returns a copy: the vector mutates
  /// under mutex_ whenever a death/rejoin lands, so a reference would hand
  /// the caller an unsynchronized view.
  [[nodiscard]] std::vector<runtime::RankState> cluster_states() const {
    analysis::LockGuard lock(mutex_);
    return states_;
  }
  /// The restore plan for the next cycle: newest checkpoint per subsystem.
  [[nodiscard]] std::map<int, EstimatorCheckpoint> plan_restore() const {
    return store_.snapshot();
  }
  [[nodiscard]] CheckpointStore& checkpoints() { return store_; }
  [[nodiscard]] const CheckpointStore& checkpoints() const { return store_; }
  [[nodiscard]] int remaps() const {
    analysis::LockGuard lock(mutex_);
    return remaps_;
  }
  [[nodiscard]] int rejoins() const {
    analysis::LockGuard lock(mutex_);
    return rejoins_;
  }
  [[nodiscard]] std::int64_t epoch() const {
    analysis::LockGuard lock(mutex_);
    return epoch_;
  }
  [[nodiscard]] int num_clusters() const {
    // states_.size() is fixed at construction; only the *values* mutate.
    // Still read under the lock: the vector object itself is guarded.
    analysis::LockGuard lock(mutex_);
    return static_cast<int>(states_.size());
  }

 private:
  /// Returns true when the cluster actually transitioned to dead (the
  /// caller then reports it through the alert sink outside the lock).
  bool mark_dead_locked(int cluster, const char* reason)
      GRIDSE_REQUIRES(mutex_);

  runtime::RecoveryConfig config_;
  /// Guards the failure-detector state machine. kill_cluster() and
  /// announce_rejoin() are operator actions that may race the cycle
  /// thread's begin_cycle()/absorb(); CheckpointStore locks separately.
  mutable analysis::Mutex mutex_{"Supervisor::mutex_"};
  std::vector<runtime::RankState> states_ GRIDSE_GUARDED_BY(mutex_);
  /// Epoch at which a rejoining cluster becomes alive again (-1 = n/a).
  std::vector<std::int64_t> rejoin_ready_ GRIDSE_GUARDED_BY(mutex_);
  AlertSink sink_ GRIDSE_GUARDED_BY(mutex_);
  CheckpointStore store_;
  std::int64_t epoch_ GRIDSE_GUARDED_BY(mutex_) = 0;
  int remaps_ GRIDSE_GUARDED_BY(mutex_) = 0;
  int rejoins_ GRIDSE_GUARDED_BY(mutex_) = 0;
};

}  // namespace gridse::core
