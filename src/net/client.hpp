// Client wire protocol for the SMR service.
//
// Clients talk to a replica's client port over the same length-prefixed
// hardened framing the replica↔replica links use (net/frame.hpp); inside a
// frame, the payload is one of the two messages below, each carrying its
// own version byte so the client protocol can evolve independently of the
// frame format:
//
//   ClientRequest{client_id, seq, payload}  — client → replica (tag 0x30)
//   ClientReply{client_id, seq, status, slot, result}
//                                           — replica → client (tag 0x31)
//   ReadRequest{client_id, read_id, consistency, min_index, key}
//                                           — client → replica (tag 0x32)
//   ReadReply{client_id, read_id, status, slot, index, value}
//                                           — replica → client (tag 0x33)
//
// `seq` is the client's own monotonically increasing request number; the
// SMR layer executes each (client_id, seq) at most once, so a client may
// retry a request (same seq) against any replica without risking double
// execution. The replica replies after the request executed in log order;
// a retry of an already-executed request is answered from the replica's
// last-reply cache.
//
// Reads carry a client-selectable consistency mode; replies carry an
// explicit status byte so a rejected (backpressured, lease-lost,
// timed-out) request is distinguishable from success without timeout
// inference.
//
// Decoding is strict: truncated buffers, trailing bytes, unknown versions
// and oversized payloads all throw CodecError, so a hostile client (or
// replica) cannot feed the peer an ambiguous message.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "net/tags.hpp"

namespace probft::net {

/// v2 added the ClientReply status byte and the read messages.
inline constexpr std::uint8_t kClientWireVersion = 2;

/// Frame tags carrying client-protocol payloads; values live in the
/// central registry (net/tags.hpp), these are local re-exports.
inline constexpr std::uint8_t kClientRequestTag = tags::kClientRequest;
inline constexpr std::uint8_t kClientReplyTag = tags::kClientReply;
inline constexpr std::uint8_t kClientReadTag = tags::kClientRead;
inline constexpr std::uint8_t kClientReadReplyTag = tags::kClientReadReply;

/// Reply disposition. kExecuted answers carry real results; kRejected
/// means the replica refused (backpressure, read timeout, no lease or
/// quorum) and the client should back off and retry, at any server. Any
/// other status byte fails decode.
enum class ReplyStatus : std::uint8_t {
  kExecuted = 0,
  kRejected = 1,
};

/// Client-selectable read consistency.
enum class ReadConsistency : std::uint8_t {
  kLinearizable = 0,  // lease or quorum read-index proof required
  kSequential = 1,    // replica must have executed past min_index
  kStaleOk = 2,       // answer immediately from the local view
};

/// Cap on a single request payload / reply result. Requests also have to
/// fit the SMR batch byte cap; this bound is what the codec enforces
/// before any engine state is touched.
inline constexpr std::size_t kMaxClientPayload = 1u << 20;

struct ClientRequest {
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  Bytes payload;

  [[nodiscard]] Bytes encode() const;
  /// Throws CodecError on truncation, trailing bytes, a version byte this
  /// build does not speak, or a payload above kMaxClientPayload.
  static ClientRequest decode(ByteSpan data);

  bool operator==(const ClientRequest& other) const = default;
};

struct ClientReply {
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  ReplyStatus status = ReplyStatus::kExecuted;
  /// Log slot the request was decided in (0 for non-executed statuses).
  std::uint64_t slot = 0;
  Bytes result;

  [[nodiscard]] Bytes encode() const;
  static ClientReply decode(ByteSpan data);

  bool operator==(const ClientReply& other) const = default;
};

struct ReadRequest {
  std::uint64_t client_id = 0;
  /// Client-chosen id echoed in the reply; unique per in-flight read.
  std::uint64_t read_id = 0;
  ReadConsistency consistency = ReadConsistency::kLinearizable;
  /// For kSequential: the reply slot of the client's last write + 1 —
  /// the replica answers only once it executed at least this many slots.
  std::uint64_t min_index = 0;
  Bytes key;

  [[nodiscard]] Bytes encode() const;
  static ReadRequest decode(ByteSpan data);

  bool operator==(const ReadRequest& other) const = default;
};

struct ReadReply {
  std::uint64_t client_id = 0;
  std::uint64_t read_id = 0;
  ReplyStatus status = ReplyStatus::kExecuted;
  /// Log slot of the last write to the key (0 if the key is unwritten).
  std::uint64_t slot = 0;
  /// Exec-slot watermark the answer reflects.
  std::uint64_t index = 0;
  Bytes value;

  [[nodiscard]] Bytes encode() const;
  static ReadReply decode(ByteSpan data);

  bool operator==(const ReadReply& other) const = default;
};

}  // namespace probft::net
