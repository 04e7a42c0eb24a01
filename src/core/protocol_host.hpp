// The single replica-facing I/O surface shared by every protocol.
//
// A replica is a pure message-driven state machine: everything it does to
// the outside world goes through this one struct — point-to-point sends,
// broadcasts, timer arming for the view synchronizer, and the decision
// upcall. The host decides what those callbacks mean:
// the simulation harness wires them to the deterministic in-process
// network, the TCP backend wires them to real sockets and the monotonic
// clock, and unit tests wire them to in-memory outboxes. Protocol code is
// identical in all three worlds (sans-I/O layering).
//
// This replaces the four per-protocol `Hooks` structs that used to live in
// core::Replica, pbft::PbftReplica, hotstuff::HotStuffReplica and
// smr::SmrReplica — one host type, four consumers.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "sync/synchronizer.hpp"

namespace probft::core {

struct ProtocolHost {
  /// Point-to-point send to replica `to` (1-based).
  std::function<void(ReplicaId to, std::uint8_t tag, const Bytes&)> send;
  /// Broadcast to all replicas except self.
  std::function<void(std::uint8_t tag, const Bytes&)> broadcast;
  /// Timer facility for the synchronizer: schedule a callback after a
  /// delay (virtual time in the simulator, monotonic clock over TCP).
  sync::Synchronizer::TimerSetter set_timer;
  /// Single-shot decision callback (view, value); optional. Used by the
  /// consensus protocols (ProBFT / PBFT / HotStuff).
  std::function<void(View, const Bytes&)> on_decide;
};

}  // namespace probft::core
