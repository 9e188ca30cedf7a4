#pragma once

#include <chrono>
#include <deque>
#include <optional>

#include "analysis/debug_sync.hpp"
#include "runtime/message.hpp"

namespace gridse::runtime {

/// Thread-safe mailbox with (source, tag) selective receive — the shared
/// receive engine behind the in-process communicator and every MeDICi
/// client.
class Mailbox {
 public:
  /// Deposit a message (any thread).
  void deliver(Message message);

  /// Block until a message matching (source, tag) exists; remove and return
  /// the first match in arrival order. Wildcards: kAnySource / kAnyTag.
  Message take(int source, int tag);

  /// Bounded take: wait at most `timeout` for a match. Returns nullopt on
  /// timeout, so a lost peer cannot hang a DSE step forever.
  std::optional<Message> take_for(int source, int tag,
                                  std::chrono::milliseconds timeout);

  /// Non-blocking variant; returns false if no match is queued.
  bool try_take(int source, int tag, Message& out);

  /// Number of queued messages (diagnostics).
  [[nodiscard]] std::size_t pending() const;

 private:
  [[nodiscard]] static bool matches(const Message& m, int source, int tag) {
    return (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  /// First queued match, or end(); requires mutex_ held.
  [[nodiscard]] std::deque<Message>::iterator find_match_locked(int source,
                                                                int tag)
      GRIDSE_REQUIRES(mutex_);

  mutable analysis::Mutex mutex_{"Mailbox::mutex_"};
  analysis::ConditionVariable cv_;
  std::deque<Message> queue_ GRIDSE_GUARDED_BY(mutex_);
};

}  // namespace gridse::runtime
