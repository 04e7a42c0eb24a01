#include "shard/placement.hpp"

#include "crypto/sha256.hpp"

namespace probft::shard {

std::uint64_t key_hash(ByteSpan key) {
  const Bytes digest = crypto::sha256(key);
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    h = (h << 8) | digest[i];
  }
  return h;
}

ShardId shard_of(std::uint32_t shard_count, ByteSpan key) {
  if (shard_count == 1) return 0;  // one range: no hash needed
  // Multiply-shift range scaling: floor(h / 2^64 * shard_count). Uniform
  // over equal ranges and free of the modulo's bias toward low shards.
  const auto h = static_cast<unsigned __int128>(key_hash(key));
  return static_cast<ShardId>((h * shard_count) >> 64);
}

}  // namespace probft::shard
