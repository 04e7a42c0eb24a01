// Placement layer (src/shard/placement): key → shard assignment must be
// a pure, pinned function of (key, shard count) — stable across
// processes and architectures.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "shard/placement.hpp"

namespace probft::shard {
namespace {

ByteSpan span_of(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

Bytes key(const std::string& s) { return to_bytes(s); }

// Pinned hash values: the first 8 bytes of SHA-256(key), big-endian.
// These constants are the wire contract with every client ever shipped —
// if one of them moves, routing silently splits the keyspace between old
// and new binaries.
TEST(Placement, KeyHashIsPinned) {
  EXPECT_EQ(key_hash(span_of(key("alpha"))), 0x8ed3f6ad685b959eULL);
  EXPECT_EQ(key_hash(span_of(key("bravo"))), 0xf144a6907dc4284dULL);
  EXPECT_EQ(key_hash(span_of(key("probft-key"))), 0x71a2b2dbc3073324ULL);
}

TEST(Placement, ShardOfIsPinnedAcrossShardCounts) {
  EXPECT_EQ(shard_of(4, span_of(key("alpha"))), 2u);
  EXPECT_EQ(shard_of(4, span_of(key("bravo"))), 3u);
  EXPECT_EQ(shard_of(4, span_of(key("probft-key"))), 1u);

  EXPECT_EQ(shard_of(8, span_of(key("alpha"))), 4u);
  EXPECT_EQ(shard_of(8, span_of(key("bravo"))), 7u);
  EXPECT_EQ(shard_of(8, span_of(key("probft-key"))), 3u);

  EXPECT_EQ(shard_of(kMaxShards, span_of(key("alpha"))), 571u);
  EXPECT_EQ(shard_of(kMaxShards, span_of(key("bravo"))), 965u);
  EXPECT_EQ(shard_of(kMaxShards, span_of(key("probft-key"))), 454u);
}

TEST(Placement, EveryKeyLandsInRangeAndEveryShardIsHit) {
  const std::uint32_t shards = 8;
  std::set<ShardId> hit;
  for (int i = 0; i < 512; ++i) {
    const ShardId s = shard_of(shards, span_of(key("k-" + std::to_string(i))));
    ASSERT_LT(s, shards);
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), shards);
}

TEST(Placement, SingleShardMapOwnsEverything) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(shard_of(1, span_of(key("k-" + std::to_string(i)))), 0u);
  }
}

// The S view-1 leaders must spread round-robin across the fleet — piling
// them onto replica 1 would serialize every group behind one node.
TEST(Placement, LeadReplicasSpreadRoundRobin) {
  const std::uint32_t n = 4;
  std::set<ReplicaId> leaders;
  for (ShardId s = 0; s < n; ++s) {
    const ReplicaId lead = lead_replica(s, n);
    ASSERT_GE(lead, 1u);
    ASSERT_LE(lead, n);
    leaders.insert(lead);
    EXPECT_EQ(lead, leader_of(1 + s, n));
  }
  EXPECT_EQ(leaders.size(), n) << "4 shards on 4 replicas: distinct leaders";
  // Wraps past n: shard n takes the same leader as shard 0.
  EXPECT_EQ(lead_replica(n, n), lead_replica(0, n));
}

}  // namespace
}  // namespace probft::shard
