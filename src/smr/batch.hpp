// Command batches: the unit a log slot decides on.
//
// A slot no longer orders one opaque byte string — it orders a `Batch` of
// client requests, each tagged with the submitting client's id and a
// per-client sequence number. The (client, seq) pair is what makes retries
// idempotent: replicas keep a last-executed-seq table per client and skip
// any request whose seq is not beyond it, so a request that reaches the
// log twice (client retry, replica forwarding, view-change re-proposal)
// executes exactly once.
//
// The wire encoding rides the shared common/codec format; decode is strict
// (bounds-checked, trailing bytes rejected) so a Byzantine leader cannot
// smuggle an unparseable value past the per-slot validity predicate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"

namespace probft::smr {

/// One client command: (client id, client-local sequence number, payload).
struct Request {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  Bytes payload;

  void encode(Writer& w) const;
  static Request decode(Reader& r);

  bool operator==(const Request& other) const = default;
};

/// The value a slot decides: zero or more requests, in execution order.
using Batch = std::vector<Request>;

/// Encoded size cap of a slot's batch: a proposal stops drawing requests
/// before it, and a request that alone would pass it is refused at intake.
inline constexpr std::size_t kBatchMaxBytes = 256 * 1024;

/// Caps a batch must respect to be a valid proposal. `max_commands` bounds
/// the request count (SmrOptions::batch_max_commands), `max_bytes` the
/// encoded size — shared by proposer and validity predicate.
struct BatchLimits {
  std::uint32_t max_commands = 64;
  std::size_t max_bytes = kBatchMaxBytes;
};

[[nodiscard]] Bytes encode_batch(const Batch& batch);

/// Strict decode; throws CodecError on truncation, trailing bytes or a
/// request count above `limits.max_commands`.
[[nodiscard]] Batch decode_batch(ByteSpan data, const BatchLimits& limits);

/// The per-slot validity predicate: true iff `value` is a well-formed
/// batch within `limits` (the empty batch is valid — it is the pipelined
/// engine's no-op, proposed only when a slot was opened by peer demand).
[[nodiscard]] bool is_valid_batch(const Bytes& value,
                                  const BatchLimits& limits);

/// Hex SHA-256 over a slot log (length-prefixed concatenation of the
/// decided batch encodings) — the log-identity every harness compares
/// across replicas (scenario transcripts, probft_node's SMRLOG line,
/// the throughput bench). One definition so they can never drift.
[[nodiscard]] std::string log_digest(const std::vector<Bytes>& slot_log);

}  // namespace probft::smr
