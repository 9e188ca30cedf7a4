#pragma once

// Seeded, deterministic fault injection for the transport stack. A FaultPlan
// (JSON, installed programmatically or through the GRIDSE_FAULT_PLAN
// environment variable) matches injection *sites* — named choke points in
// socket, wire-framing, relay, mailbox, and client code — and decides per
// hit whether to drop, delay, error, truncate, or bit-flip the operation.
//
// Determinism: every decision is a pure hash of (plan seed, rule index,
// source, tag, per-stream hit counter). Because each (source, tag) stream is
// FIFO through the transport, the decision sequence is identical across
// runs regardless of thread interleaving — two runs with the same seed
// produce identical injection logs (the chaos suite asserts this).
//
// Call sites use only the FAULT_* macros below so a GRIDSE_FAULT=OFF build
// compiles the layer out the same way GRIDSE_OBS=OFF compiles out the obs
// macros: the arguments sit in an unevaluated sizeof, costing no code and
// no symbol references (tests/fault/check_off_symbols.sh verifies).

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#ifndef GRIDSE_FAULT
#define GRIDSE_FAULT 1
#endif

namespace gridse::fault {

/// True when the layer is compiled in; chaos tests skip themselves (not
/// fail) when it is not.
inline constexpr bool kEnabled = GRIDSE_FAULT != 0;

/// Matches any source or tag in a rule (sources and tags are allowed to be
/// negative: the middleware rank is -1).
inline constexpr int kAnyValue = std::numeric_limits<int>::min();

/// Every site a FAULT_* hook in the tree checks. A plan rule must name one
/// of these, or a "prefix*" pattern matching at least one.
/// tools/gridse_check.py keeps its site -> hosting-file manifest equal to
/// this list.
inline constexpr auto kKnownSites = std::to_array<std::string_view>({
    "socket.send", "socket.recv", "socket.connect",  // runtime::Socket
    "mailbox.deliver",                               // runtime::Mailbox
    "wire.read", "wire.write",                       // medici frames
    "relay.forward",                                 // MeDICi relay
    "client.send",                                   // medici::MwClient
    "topology.apply",                                // fault::TopologyReplay
});

/// What one injection site should do for one hit.
enum class ActionKind : std::uint8_t {
  kNone = 0,
  kDrop,      ///< the operation silently does nothing
  kDelay,     ///< sleep before proceeding (applied inside maybe())
  kError,     ///< throw CommError (applied inside maybe())
  kTruncate,  ///< write a strict prefix, then fail (wire.write only)
  kBitFlip,   ///< flip one deterministic payload bit (wire.write only)
};

/// Decision returned to a hook. kDelay and kError are consumed inside
/// maybe() (it sleeps / throws), so callers only ever see kNone, kDrop,
/// kTruncate, or kBitFlip.
struct Action {
  ActionKind kind = ActionKind::kNone;
  /// Deterministic per-hit value the site maps onto an offset (which bit to
  /// flip, where to cut the frame).
  std::uint64_t mutation = 0;
  [[nodiscard]] bool none() const { return kind == ActionKind::kNone; }
};

/// One rule of a fault plan.
struct FaultRule {
  /// Exact site name, or a prefix ending in '*' ("wire.*").
  std::string site;
  ActionKind action = ActionKind::kDrop;
  /// Injection probability per matching hit.
  double probability = 1.0;
  /// Match only this message source (rank / client id); kAnyValue = any.
  int source = kAnyValue;
  /// Inclusive tag window; kAnyValue on both ends = any tag.
  int tag_min = kAnyValue;
  int tag_max = kAnyValue;
  /// Skip the first `after` matching hits of each (source, tag) stream.
  int after = 0;
  /// Cap on total injections across the rule; -1 = unlimited.
  int max_injections = -1;
  /// Sleep length for kDelay actions.
  std::chrono::milliseconds delay{0};
};

/// A full plan: the decision seed plus an ordered rule list (first matching
/// rule that fires wins).
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  /// Parse from JSON:
  ///   {"seed": 42, "rules": [{"site": "wire.write", "action": "drop",
  ///    "probability": 0.3, "source": 1, "tag_min": 16, "tag_max": 400,
  ///    "after": 0, "max": 10, "delay_ms": 50}]}
  /// Throws gridse::InvalidInput on malformed input, including a "site"
  /// that matches none of kKnownSites.
  static FaultPlan parse(std::string_view json);
};

/// One recorded injection; the log is the determinism witness the chaos
/// suite compares across same-seed runs.
struct InjectionRecord {
  std::string site;
  int source = kAnyValue;
  int tag = kAnyValue;
  /// Index of this hit within its (rule, source, tag) stream.
  std::uint64_t stream_hit = 0;
  ActionKind action = ActionKind::kNone;

  bool operator==(const InjectionRecord&) const = default;
};

/// Install `plan` as the process-wide active plan (replaces any previous
/// plan and clears the injection log). Thread-safe.
void install(FaultPlan plan);

/// Remove the active plan; hooks become near-free (one relaxed atomic load).
void clear();

/// True when a plan is active.
bool active();

/// Load and install the plan named by GRIDSE_FAULT_PLAN (inline JSON when
/// the value starts with '{', else a file path). No-op without the variable;
/// returns whether a plan was installed. Called once automatically on the
/// first hook hit of the process.
bool load_env_plan();

/// Snapshot of the injection log, sorted (site, source, tag, stream_hit) so
/// two same-seed runs compare equal independent of thread interleaving.
std::vector<InjectionRecord> injection_log();

/// Total injections since the last install()/clear().
std::uint64_t injected_count();

/// The sorted injection log as a JSON array (for chaos health reports).
std::string log_to_json();

/// Hook: decide this hit. Applies kDelay (sleeps) and kError (throws
/// gridse::CommError) internally; returns the action for kinds the site
/// must apply itself (kDrop, kTruncate, kBitFlip), else kNone.
Action maybe(const char* site, int source = kAnyValue, int tag = kAnyValue);

/// Convenience for sites that can only drop: applies delay/error like
/// maybe() and returns true when the operation should be dropped.
bool inject_drop(const char* site, int source = kAnyValue,
                 int tag = kAnyValue);

/// Flip one bit of `data`, chosen deterministically from `mutation`.
/// No-op on an empty span.
void apply_bitflip(std::uint64_t mutation, std::span<std::uint8_t> data);

/// Deterministic cut point for a truncated write: in [1, frame_size - 1]
/// so the receiver always sees a strict, nonempty prefix. frame_size must
/// be >= 2 (every frame has a 16-byte header).
std::size_t truncate_length(std::uint64_t mutation, std::size_t frame_size);

}  // namespace gridse::fault

#if GRIDSE_FAULT

/// Query the plan at an injection site; yields a fault::Action.
#define FAULT_POINT(site, source, tag) \
  ::gridse::fault::maybe((site), (source), (tag))

/// Drop-only injection site; yields true when the operation must be
/// dropped.
#define FAULT_DROP(site, source, tag) \
  ::gridse::fault::inject_drop((site), (source), (tag))

#else  // !GRIDSE_FAULT — statements that type-check but never evaluate.

#define FAULT_POINT(site, source, tag)                      \
  ((void)sizeof(site), (void)sizeof(source), (void)sizeof(tag), \
   ::gridse::fault::Action{})

#define FAULT_DROP(site, source, tag)                       \
  ((void)sizeof(site), (void)sizeof(source), (void)sizeof(tag), false)

#endif  // GRIDSE_FAULT
