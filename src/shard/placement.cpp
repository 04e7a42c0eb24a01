#include "shard/placement.hpp"

#include "crypto/sha256.hpp"

namespace probft::shard {

namespace {

/// Wire version byte for the ShardMap encoding.
constexpr std::uint8_t kMapWireVersion = 1;

}  // namespace

void ShardMap::encode(Writer& w) const {
  w.u8(kMapWireVersion);
  w.u64(version);
  w.u32(shard_count);
}

ShardMap ShardMap::decode(Reader& r) {
  const std::uint8_t wire = r.u8();
  if (wire != kMapWireVersion) throw CodecError("ShardMap: unknown version");
  ShardMap map;
  map.version = r.u64();
  map.shard_count = r.u32();
  if (map.shard_count == 0) throw CodecError("ShardMap: zero shards");
  if (map.shard_count > kMaxShards) {
    throw CodecError("ShardMap: shard_count exceeds limit");
  }
  return map;
}

Bytes ShardMap::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

ShardMap ShardMap::from_bytes(ByteSpan raw) {
  Reader r(raw);
  ShardMap map = decode(r);
  r.expect_exhausted();
  return map;
}

std::uint64_t key_hash(ByteSpan key) {
  const Bytes digest = crypto::sha256(key);
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    h = (h << 8) | digest[i];
  }
  return h;
}

ShardId shard_of(const ShardMap& map, ByteSpan key) {
  if (map.shard_count == 1) return 0;  // one range: no hash needed
  // Multiply-shift range scaling: floor(h / 2^64 * shard_count). Uniform
  // over equal ranges and free of the modulo's bias toward low shards.
  const auto h = static_cast<unsigned __int128>(key_hash(key));
  return static_cast<ShardId>((h * map.shard_count) >> 64);
}

}  // namespace probft::shard
