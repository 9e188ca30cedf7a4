#pragma once

#include <cstdint>
#include <vector>

#include "runtime/communicator.hpp"
#include "runtime/resilience.hpp"

namespace gridse::runtime {

/// Membership state of one rank/cluster in the failure-detector state
/// machine (docs/RESILIENCE.md "Recovery & remapping"):
///   alive --missed some beats--> suspect --missed all beats--> dead
///   dead --announce_rejoin--> rejoining --next remap epoch--> alive
enum class RankState : std::uint8_t {
  kAlive = 0,
  kSuspect = 1,
  kDead = 2,
  kRejoining = 3,
};

[[nodiscard]] const char* to_string(RankState state);

/// The shared cluster-membership view one probe produces: the per-exchange
/// timeout discovery of the degraded path is replaced by this single
/// consensus snapshot taken at the start of the cycle.
struct MembershipView {
  /// One state per comm rank; empty when no probe ran.
  std::vector<RankState> states;
  /// True when the coordinator's consensus broadcast was received; false
  /// when this rank had to fall back to its own local observations.
  bool consensus = true;

  [[nodiscard]] bool alive(int rank) const {
    return rank < 0 || rank >= static_cast<int>(states.size()) ||
           states[static_cast<std::size_t>(rank)] != RankState::kDead;
  }
  [[nodiscard]] std::vector<int> dead_ranks() const;
  [[nodiscard]] std::vector<int> suspect_ranks() const;
  [[nodiscard]] int num_alive() const;
  [[nodiscard]] bool all_alive() const { return dead_ranks().empty(); }
};

/// Recovery tag layout: between the DSE driver's combine tag
/// ((1<<18)+(1<<17)) and the transports' reserved range (> 1<<20).
/// Heartbeat beats occupy [base, base + rounds); control and checkpoint
/// traffic sits above every beat round.
constexpr int kHeartbeatTagBase = 1 << 19;
constexpr int kMaxHeartbeatRounds = 64;
/// Per-rank local observation shipped to the coordinator (rank 0).
constexpr int kMembershipReportTag = kHeartbeatTagBase + 4096;
/// Coordinator's consensus membership broadcast.
constexpr int kMembershipViewTag = kHeartbeatTagBase + 4097;
/// Per-rank end-of-cycle recovery report (checkpoint batch) to rank 0.
constexpr int kRecoveryReportTag = kHeartbeatTagBase + 4098;
/// Checkpoint restore shipments: kCheckpointTagBase + subsystem id.
constexpr int kCheckpointTagBase = kHeartbeatTagBase + 8192;

[[nodiscard]] constexpr int heartbeat_tag(int round) {
  return kHeartbeatTagBase + round;
}
[[nodiscard]] constexpr int checkpoint_tag(int subsystem) {
  return kCheckpointTagBase + subsystem;
}

/// Run one heartbeat round-trip across the world and return the consensus
/// membership view. Collective: every rank must call it at the same point
/// of the cycle (the DSE driver runs it as phase 0).
///
/// Protocol: each rank fans `rounds` one-byte beats out to every peer,
/// `period` apart; then collects peers' beats inside a shared `timeout`
/// budget. A peer observed with all rounds is alive, some rounds suspect,
/// zero rounds dead. Rank 0 aggregates everyone's local observations
/// (a rank whose report never arrives is itself marked dead) into a
/// consensus — majority-dead => dead, any dead/suspect vote => suspect —
/// and broadcasts it; a rank that misses the broadcast falls back to its
/// local view (`consensus = false`). Under seeded drop-based fault plans
/// every observation, and therefore the view, is deterministic.
MembershipView probe_membership(Communicator& comm,
                                const HeartbeatSettings& settings);

/// Encode/decode a membership view (the coordinator broadcast payload).
/// decode throws gridse::InvalidInput on malformed bytes.
std::vector<std::uint8_t> encode_membership(const MembershipView& view);
MembershipView decode_membership(const std::vector<std::uint8_t>& bytes);

}  // namespace gridse::runtime
