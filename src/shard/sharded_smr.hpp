// Sharded SMR: S independent consensus groups behind one transport.
//
// Each group is a full smr::SmrReplica — its own slot window, batches,
// checkpoints, view state and (optionally) WAL — constructed with
// leader_offset = shard id so the S view-1 leaders spread round-robin
// across the fleet. All groups of one physical replica share the node's
// keypair and network connection. With S > 1, group traffic travels as
//
//   kShardTag (0x28):        u32 shard ‖ u8 inner-tag ‖ inner payload
//
// where the inner frame is any SMR-layer message (kSmrTag envelopes,
// hints, pulls, checkpoint votes, state transfer). Demultiplexing is a
// 5-byte peel on the network thread.
//
// S = 1 has no envelope: the one group gets the outer host unchanged and
// every inbound frame, so a one-group service is wire-identical to a bare
// SmrReplica (same tags, same bytes, same forwards). This is the only
// SMR serving path; the single-group deployment is its S = 1 case.
//
// Request routing: submit_request places the payload's key through the
// Placement layer (owner_of) and enqueues at the owning group. If this
// replica is not that group's engine leader (smr::SmrReplica::
// engine_leader: the leader of the view the group last decided in, view 1
// until a view change), the group forwards the request — with S > 1 as
//
//   kShardForwardTag (0x29): u64 map-version ‖ u32 shard ‖ Request
//
// so it lands in the leader's next batch without waiting for a timeout;
// the local enqueue stays as the liveness fallback. The frame carries the
// ShardMap version: a receiver under a different map drops it instead of
// committing it to the wrong group's log. S = 1 forwards as the
// single-group engine does (kSmrForwardTag).
//
// Thread ownership: ShardedSmr has no locking of its own. Like the
// SmrReplica it wraps, every entry point (on_message, submit_request,
// timers) must run on the node's protocol thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/protocol_host.hpp"
#include "core/replica.hpp"
#include "net/tags.hpp"
#include "shard/placement.hpp"
#include "smr/smr_replica.hpp"
#include "store/wal.hpp"

namespace probft::shard {

/// Outer wire tags; values live in the central registry (net/tags.hpp),
/// these are local re-exports.
inline constexpr std::uint8_t kShardTag = net::tags::kShard;
inline constexpr std::uint8_t kShardForwardTag = net::tags::kShardForward;

struct ShardedSmrConfig {
  /// Template for every group: id/n/f/o/l, pipeline shape, crypto, sync.
  /// Per-group fields are overridden internally (leader_offset, wal,
  /// on_execute, and forward when shard_count > 1); base.wal and
  /// base.on_execute themselves are ignored.
  smr::SmrConfig base;

  /// The directory this replica serves under; shard_count = S.
  ShardMap map;

  /// Optional per-shard WALs (index = shard id; empty = no durability,
  /// size must otherwise equal shard_count). Non-owning; must outlive
  /// the service. Each group persists under its own segment namespace
  /// (open_group_wals).
  std::vector<store::Wal*> wals;

  /// Called once per executed request of any group, tagged with the
  /// owning shard, in that shard's execution order. This is where the
  /// node replies to clients and the dtx coordinator observes entries.
  std::function<void(ShardId, const smr::ExecutedCommand&)> on_execute;
};

class ShardedSmr : public core::INode {
 public:
  /// Builds the S groups (recovering each from its WAL when provided).
  /// Throws std::invalid_argument on a malformed config (shard_count of
  /// 0 / beyond kMaxShards, wals size mismatch).
  ShardedSmr(ShardedSmrConfig config, core::ProtocolHost host);

  void start() override;
  void on_message(ReplicaId from, std::uint8_t tag,
                  const Bytes& payload) override;

  /// Routes (client, seq, payload) to owner_of(payload) and forwards to
  /// that group's engine leader when it is remote. Returns the local
  /// enqueue verdict — false for duplicates and unbatchable payloads,
  /// like the single-group engine.
  bool submit_request(std::uint64_t client, std::uint64_t seq, Bytes payload);

  /// The group that orders a request payload: placement by its KEY (the
  /// bytes before the first '=', smr::read_view_key), so a read of that
  /// key routes to the group that owns its writes. Payloads without '='
  /// key as the whole payload. A serving node looks up a request's dedup
  /// state in this group.
  [[nodiscard]] ShardId owner_of(const Bytes& payload) const;

  /// Same, with the owning shard chosen by the caller (the dtx
  /// coordinator places its own entries).
  bool submit_to_shard(ShardId s, std::uint64_t client, std::uint64_t seq,
                       Bytes payload);

  /// Read-path entry: routes `key` to the group that owns it — writes
  /// place by read_view_key(payload), so key and writes land on the same
  /// group — and answers there at the requested consistency (see
  /// smr::SmrReplica::submit_read).
  void submit_read(Bytes key, net::ReadConsistency consistency,
                   std::uint64_t min_index, smr::SmrReplica::ReadCallback cb);

  // ---- inspection ----
  [[nodiscard]] const Placement& placement() const { return placement_; }
  [[nodiscard]] std::uint32_t shard_count() const {
    return placement_.shard_count();
  }
  [[nodiscard]] smr::SmrReplica& group(ShardId s) { return *groups_.at(s); }
  [[nodiscard]] const smr::SmrReplica& group(ShardId s) const {
    return *groups_.at(s);
  }
  [[nodiscard]] std::string log_digest(ShardId s) const {
    return groups_.at(s)->log_digest();
  }
  /// Aggregate executed commands across all groups.
  [[nodiscard]] std::uint64_t executed_commands() const;
  /// Aggregate committed (executed) slots across all groups.
  [[nodiscard]] std::uint64_t committed_slots() const;

 private:
  /// Host handed to group `s` when S > 1: wraps every frame in the shard
  /// envelope.
  [[nodiscard]] core::ProtocolHost group_host(ShardId s);
  void handle_forward(ReplicaId from, const Bytes& payload);

  ShardedSmrConfig cfg_;
  core::ProtocolHost host_;
  Placement placement_;
  std::vector<std::unique_ptr<smr::SmrReplica>> groups_;
};

/// Opens one WAL per group under `dir`: `dir` itself when shard_count is
/// 1 (the single-group layout), `dir/shard-<s>` otherwise. Throws what
/// store::Wal throws.
[[nodiscard]] std::vector<std::unique_ptr<store::Wal>> open_group_wals(
    const std::string& dir, std::uint32_t shard_count, bool fsync);

}  // namespace probft::shard
