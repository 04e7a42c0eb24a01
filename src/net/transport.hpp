// Transport abstraction: the replica↔network boundary.
//
// Everything above this interface (protocol replicas, the cluster harness,
// the scenario matrix) is transport-agnostic: it registers a receive
// handler and emits sends and broadcasts, nothing more. Two
// implementations exist:
//
//  - net::Network       — the deterministic in-process simulator network
//                         (partial synchrony, fault filters, seeded RNG);
//  - net::TcpTransport  — real nonblocking TCP sockets with length-prefixed
//                         framing, so a cluster can run as OS processes.
//
// Both report uniform wire statistics through TransportStats.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace probft::net {

/// Wire-level accounting shared by every transport.
///
/// `sends` / `sends_by_tag` count *logical* protocol sends (one per
/// send()/broadcast-recipient, including ones a fault filter later drops).
/// `bytes_sent` / `bytes_by_tag` count *transmitted* payload bytes — a
/// duplicated delivery transmits its payload twice and is accounted twice,
/// so `bytes_sent` always equals the sum over `bytes_by_tag`.
struct TransportStats {
  std::uint64_t sends = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicates = 0;  // extra transmissions beyond the sends
  std::uint64_t bytes_sent = 0;
  std::map<std::uint8_t, std::uint64_t> sends_by_tag;
  std::map<std::uint8_t, std::uint64_t> bytes_by_tag;

  [[nodiscard]] std::uint64_t sends_for(std::uint8_t tag) const {
    const auto it = sends_by_tag.find(tag);
    return it == sends_by_tag.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t bytes_for(std::uint8_t tag) const {
    const auto it = bytes_by_tag.find(tag);
    return it == bytes_by_tag.end() ? 0 : it->second;
  }
};

/// Abstract point-to-point message transport for a cluster of n replicas
/// (1-based ids). Handlers are invoked as (from, tag, payload); delivery is
/// asynchronous and unordered unless a concrete transport says otherwise.
class ITransport {
 public:
  using Handler =
      std::function<void(ReplicaId from, std::uint8_t tag, const Bytes&)>;

  virtual ~ITransport() = default;

  /// Registers the receive callback for replica `id`. The simulator hosts
  /// all n replicas and accepts any id; a process-per-replica transport
  /// only accepts its own.
  virtual void register_handler(ReplicaId id, Handler handler) = 0;

  /// Point-to-point send; self-sends are allowed (delivered async).
  virtual void send(ReplicaId from, ReplicaId to, std::uint8_t tag,
                    Bytes payload) = 0;

  /// Sends to every replica except the sender itself.
  virtual void broadcast(ReplicaId from, std::uint8_t tag,
                         const Bytes& payload) = 0;

  [[nodiscard]] virtual const TransportStats& stats() const = 0;
};

}  // namespace probft::net
