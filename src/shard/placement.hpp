// Deterministic placement for the sharded SMR service.
//
// The keyspace is split into `shard_count` equal hash ranges: a key's owner
// is derived from the first 8 bytes of SHA-256(key), scaled into
// [0, shard_count) with a 128-bit multiply — no modulo bias, and the
// assignment for a given (key, shard_count) pair is stable across
// processes and architectures. The shard count is the whole directory:
// clients and replicas compute placement from it alone, and forwarded
// requests carry it (shard::kShardForwardTag), so a frame routed by a
// node started with another --shards is dropped instead of landing in
// the wrong group's log.
//
// This mirrors how partitioned storage systems (DAOS pool/object placement)
// scale: placement is a pure function both sides compute, never a lookup
// round-trip.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace probft::shard {

/// 0-based consensus-group identifier.
using ShardId = std::uint32_t;

/// Upper bound on the shard count a node accepts (per-shard state must
/// not grow to 2^32 groups).
inline constexpr std::uint32_t kMaxShards = 1024;

/// Stable 64-bit key hash: the first 8 bytes of SHA-256(key), big-endian.
[[nodiscard]] std::uint64_t key_hash(ByteSpan key);

/// key → owning shard: hash scaled into [0, shard_count).
[[nodiscard]] ShardId shard_of(std::uint32_t shard_count, ByteSpan key);

/// The view-1 leader of shard `s` in an n-replica fleet. Groups run with
/// core::ReplicaConfig::leader_offset = s, so the S view-1 leaders spread
/// round-robin across the fleet instead of piling onto replica 1.
[[nodiscard]] inline ReplicaId lead_replica(ShardId s, std::uint32_t n) {
  return leader_of(1 + s, n);
}

}  // namespace probft::shard
