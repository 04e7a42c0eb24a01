#include "shard/sharded_smr.hpp"

#include <stdexcept>
#include <utility>

#include "common/codec.hpp"
#include "smr/batch.hpp"
#include "smr/reads.hpp"

namespace probft::shard {

ShardedSmr::ShardedSmr(ShardedSmrConfig config, core::ProtocolHost host)
    : cfg_(std::move(config)), host_(std::move(host)) {
  const std::uint32_t shards = cfg_.shard_count;
  if (shards == 0 || shards > kMaxShards) {
    throw std::invalid_argument("ShardedSmr: bad shard_count");
  }
  if (!cfg_.wals.empty() && cfg_.wals.size() != shards) {
    throw std::invalid_argument("ShardedSmr: wals size != shard_count");
  }
  groups_.reserve(shards);
  for (ShardId s = 0; s < shards; ++s) {
    smr::SmrConfig gc = cfg_.base;
    gc.leader_offset = s;
    // Forwards carry the shard count, so a receiver started with another
    // one drops them instead of committing to the wrong group's log. One
    // group keeps the single-group forward (kSmrForwardTag).
    if (shards > 1) {
      gc.forward = [this, s](ReplicaId to, const smr::Request& req) {
        Writer w;
        w.u32(cfg_.shard_count);
        w.u32(s);
        req.encode(w);
        if (to == 0) {
          host_.broadcast(kShardForwardTag, std::move(w).take());
        } else {
          host_.send(to, kShardForwardTag, std::move(w).take());
        }
      };
    }
    gc.wal = cfg_.wals.empty() ? nullptr : cfg_.wals[s];
    gc.on_execute = [this, s](const smr::ExecutedCommand& cmd) {
      if (cfg_.on_execute) cfg_.on_execute(s, cmd);
    };
    groups_.push_back(std::make_unique<smr::SmrReplica>(
        std::move(gc), shards == 1 ? host_ : group_host(s)));
  }
}

core::ProtocolHost ShardedSmr::group_host(ShardId s) {
  core::ProtocolHost gh;
  gh.send = [this, s](ReplicaId to, std::uint8_t tag, const Bytes& m) {
    Writer w;
    w.u32(s);
    w.u8(tag);
    w.raw(m);
    host_.send(to, kShardTag, std::move(w).take());
  };
  gh.broadcast = [this, s](std::uint8_t tag, const Bytes& m) {
    Writer w;
    w.u32(s);
    w.u8(tag);
    w.raw(m);
    host_.broadcast(kShardTag, std::move(w).take());
  };
  // Groups are never destroyed before the service, so timers pass through
  // unguarded (the SmrReplica already guards its retired slot instances).
  gh.set_timer = host_.set_timer;
  return gh;
}

void ShardedSmr::start() {
  for (auto& group : groups_) group->start();
}

bool ShardedSmr::submit_request(std::uint64_t client, std::uint64_t seq,
                                Bytes payload) {
  if ((client & kReservedClientBit) != 0) return false;
  const ShardId s = owner_of(payload);
  return submit_to_shard(s, client, seq, std::move(payload));
}

ShardId ShardedSmr::owner_of(const Bytes& payload) const {
  return shard_of(smr::read_view_key(payload));
}

ShardId ShardedSmr::shard_of(ByteSpan key) const {
  return shard::shard_of(cfg_.shard_count, key);
}

void ShardedSmr::submit_read(Bytes key, net::ReadConsistency consistency,
                             std::uint64_t min_index,
                             smr::SmrReplica::ReadCallback cb) {
  const ShardId s = shard_of(key);
  groups_[s]->submit_read(std::move(key), consistency, min_index,
                          std::move(cb));
}

bool ShardedSmr::submit_to_shard(ShardId s, std::uint64_t client,
                                 std::uint64_t seq, Bytes payload) {
  if (s >= shard_count()) return false;
  return groups_[s]->submit_request(client, seq, std::move(payload));
}

void ShardedSmr::handle_forward(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  const std::uint32_t shards = r.u32();
  const ShardId s = r.u32();
  smr::Request req = smr::Request::decode(r);
  r.expect_exhausted();
  // A sender with another shard count places keys differently, so
  // committing its forward here could write the key to the wrong
  // group's log. Drop; the request's own enqueue at the sender stays.
  if (shards != shard_count() || s >= shard_count()) return;
  groups_[s]->on_forward(from, std::move(req));
}

void ShardedSmr::on_message(ReplicaId from, std::uint8_t tag,
                            const Bytes& payload) {
  if (shard_count() == 1) {  // no envelope: the single-group wire
    groups_[0]->on_message(from, tag, payload);
    return;
  }
  try {
    switch (tag) {
      case kShardTag: {
        Reader r(payload);
        const ShardId s = r.u32();
        const std::uint8_t inner_tag = r.u8();
        Bytes inner = r.raw(r.remaining());
        if (s >= shard_count()) return;  // garbage: drop
        groups_[s]->on_message(from, inner_tag, inner);
        break;
      }
      case kShardForwardTag:
        handle_forward(from, payload);
        break;
      default:
        break;  // not shard traffic
    }
  } catch (const CodecError&) {
    // Malformed envelope: drop.
  }
}

std::uint64_t ShardedSmr::executed_commands() const {
  std::uint64_t total = 0;
  for (const auto& group : groups_) total += group->executed_commands();
  return total;
}

std::uint64_t ShardedSmr::committed_slots() const {
  std::uint64_t total = 0;
  for (const auto& group : groups_) total += group->committed_slots();
  return total;
}

std::vector<std::unique_ptr<store::Wal>> open_group_wals(
    const std::string& dir, std::uint32_t shard_count, bool fsync) {
  std::vector<std::unique_ptr<store::Wal>> wals;
  for (ShardId s = 0; s < shard_count; ++s) {
    wals.push_back(std::make_unique<store::Wal>(store::WalOptions{
        shard_count == 1 ? dir : dir + "/shard-" + std::to_string(s),
        fsync}));
  }
  return wals;
}

}  // namespace probft::shard
