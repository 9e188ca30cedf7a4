#pragma once

#include <chrono>
#include <optional>

#include "runtime/message.hpp"

namespace gridse::runtime {

/// Minimal MPI-flavoured message-passing interface. Each participating
/// "cluster master" holds one Communicator; implementations provide
/// in-process channels (InprocWorld: deterministic tests, fast benches) and
/// real TCP sockets through MeDICi clients (medici::MediciWorld: the paper's
/// cross-cluster data path, relayed or direct).
///
/// Semantics: send is asynchronous and ordered per (sender, receiver) pair;
/// recv blocks until a matching message arrives. Tags are nonnegative;
/// kAnySource / kAnyTag act as wildcards on the receive side.
class Communicator {
 public:
  virtual ~Communicator() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;

  /// Post a message; never blocks on the receiver. Throws CommError if the
  /// destination is invalid or the transport failed.
  virtual void send(int dest, int tag, std::vector<std::uint8_t> payload) = 0;

  /// Block until a message matching (source, tag) is available and return
  /// it. Matching is FIFO within a (source, tag) stream.
  virtual Message recv(int source, int tag) = 0;

  /// Bounded recv: wait at most `timeout`, returning nullopt if no match
  /// arrived — the DSE step's defence against a lost peer.
  virtual std::optional<Message> recv_for(int source, int tag,
                                          std::chrono::milliseconds timeout) = 0;

  /// Collective barrier across all ranks.
  virtual void barrier() = 0;

  /// Bytes sent so far by this rank (for the communication-cost reports).
  [[nodiscard]] virtual std::size_t bytes_sent() const = 0;
};

}  // namespace gridse::runtime
