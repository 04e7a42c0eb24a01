#include "shard/dtx.hpp"

#include <algorithm>
#include <utility>

#include "common/codec.hpp"

namespace probft::shard {

namespace {

/// Entry magics, 4 raw bytes in front of every dtx payload. The client
/// request and the four log-entry kinds each get their own so a log scan
/// can classify entries without context.
constexpr char kRequestMagic[] = "DTX1";
constexpr char kBeginMagic[] = "DXB1";
constexpr char kPrepareMagic[] = "DXP1";
constexpr char kDecideMagic[] = "DXD1";
constexpr char kApplyMagic[] = "DXA1";

/// Keys per transaction (bounds tracker state against hostile requests).
constexpr std::size_t kMaxDtxKeys = 64;

[[nodiscard]] ByteSpan span(const Bytes& b) {
  return ByteSpan(b.data(), b.size());
}

[[nodiscard]] bool has_magic(const Bytes& payload, const char* magic) {
  return payload.size() >= 4 && std::equal(magic, magic + 4, payload.begin());
}

void put_magic(Writer& w, const char* magic) {
  w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>(magic), 4));
}

void encode_keys(Writer& w, const std::vector<Bytes>& keys) {
  w.vec(keys, [](Writer& wr, const Bytes& key) { wr.bytes(span(key)); });
}

[[nodiscard]] std::vector<Bytes> decode_keys(Reader& r) {
  return r.vec<Bytes>([](Reader& rd) { return rd.bytes(); }, kMaxDtxKeys);
}

}  // namespace

DtxCoordinator::DtxCoordinator(ShardedSmr& service,
                               sync::Synchronizer::TimerSetter set_timer,
                               DtxOptions opts)
    : service_(service), set_timer_(std::move(set_timer)), opts_(opts) {}

bool DtxCoordinator::is_dtx_request(const Bytes& payload) {
  return has_magic(payload, kRequestMagic);
}

Bytes DtxCoordinator::encode_request(const std::vector<Bytes>& keys) {
  Writer w;
  put_magic(w, kRequestMagic);
  encode_keys(w, keys);
  return std::move(w).take();
}

bool DtxCoordinator::is_bookkeeping(ShardId shard, std::uint64_t client,
                                    const Bytes& payload) {
  if (payload.size() < 12 || payload[0] != 'D' || payload[1] != 'X') {
    return false;  // cheap reject for ordinary traffic
  }
  Reader r(span(payload));
  (void)r.raw(4);
  const std::uint64_t txid = r.u64();
  if (has_magic(payload, kBeginMagic) || has_magic(payload, kDecideMagic)) {
    return client == coord_client(txid);
  }
  if (has_magic(payload, kPrepareMagic) || has_magic(payload, kApplyMagic)) {
    return client == part_client(txid, shard);
  }
  return false;
}

std::uint64_t DtxCoordinator::txid_of(std::uint64_t client,
                                      std::uint64_t seq,
                                      const Bytes& payload) {
  Writer w;
  w.u64(client);
  w.u64(seq);
  w.bytes(span(payload));
  const Bytes buf = std::move(w).take();
  return key_hash(span(buf));
}

std::uint64_t DtxCoordinator::coord_client(std::uint64_t txid) {
  Writer w;
  put_magic(w, "dxtC");
  w.u64(txid);
  const Bytes buf = std::move(w).take();
  return key_hash(span(buf));
}

std::uint64_t DtxCoordinator::part_client(std::uint64_t txid, ShardId shard) {
  Writer w;
  put_magic(w, "dxtP");
  w.u64(txid);
  w.u32(shard);
  const Bytes buf = std::move(w).take();
  return key_hash(span(buf));
}

void DtxCoordinator::place(Tx& tx, std::vector<Bytes> keys) {
  tx.keys = std::move(keys);
  tx.by_shard.clear();
  for (const Bytes& key : tx.keys) {
    tx.by_shard[service_.placement().shard_of(span(key))].push_back(key);
  }
  tx.coord = service_.placement().shard_of(span(tx.keys.front()));
}

bool DtxCoordinator::submit(std::uint64_t client, std::uint64_t seq,
                            const Bytes& payload) {
  if (!is_dtx_request(payload)) return false;
  std::vector<Bytes> keys;
  try {
    Reader r(span(payload));
    (void)r.raw(4);  // magic
    keys = decode_keys(r);
    r.expect_exhausted();
  } catch (const CodecError&) {
    return false;
  }
  if (keys.empty()) return false;
  for (const Bytes& key : keys) {
    if (key.empty()) return false;
  }
  const std::uint64_t txid = txid_of(client, seq, payload);
  Tx& tx = txs_[txid];
  tx.txid = txid;
  if (tx.keys.empty()) place(tx, std::move(keys));
  tx.origin_client = client;
  tx.origin_seq = seq;
  drive(tx);
  arm_pump();
  return true;
}

std::optional<bool> DtxCoordinator::completed_status(
    std::uint64_t txid) const {
  const auto it = txs_.find(txid);
  if (it == txs_.end() || !it->second.completed) return std::nullopt;
  return it->second.decision == 1;
}

void DtxCoordinator::drive(Tx& tx) {
  if (tx.completed) return;
  if (!tx.begun) {
    // Until BEGIN executes in the coordinator log the tx is not durable
    // anywhere; only a replica that knows the key set (the one the client
    // talked to, or any replica after BEGIN) can push it forward.
    if (!tx.keys.empty()) {
      Writer w;
      put_magic(w, kBeginMagic);
      w.u64(tx.txid);
      w.u64(tx.origin_client);
      w.u64(tx.origin_seq);
      encode_keys(w, tx.keys);
      (void)service_.submit_to_shard(tx.coord, coord_client(tx.txid), 1,
                                     std::move(w).take());
    }
    return;
  }
  if (tx.decision < 0) {
    for (const auto& [p, keys] : tx.by_shard) {
      if (tx.prepared.count(p) != 0) continue;
      Writer w;
      put_magic(w, kPrepareMagic);
      w.u64(tx.txid);
      w.u32(p);
      encode_keys(w, keys);
      (void)service_.submit_to_shard(p, part_client(tx.txid, p), 1,
                                     std::move(w).take());
    }
    const bool all_prepared = tx.prepared.size() == tx.by_shard.size();
    const bool timed_out = opts_.abort_after_ticks != 0 &&
                           tx.ticks >= opts_.abort_after_ticks;
    if (all_prepared || timed_out) {
      // Commit and abort race on the SAME (client, seq): the coordinator
      // log's total order picks one, dedup drops the other.
      Writer w;
      put_magic(w, kDecideMagic);
      w.u64(tx.txid);
      w.u8(all_prepared ? 1 : 0);
      (void)service_.submit_to_shard(tx.coord, coord_client(tx.txid), 2,
                                     std::move(w).take());
    }
    return;
  }
  if (tx.decision == 0) {
    complete(tx, /*committed=*/false);
    return;
  }
  for (const auto& [p, keys] : tx.by_shard) {
    if (tx.applied.count(p) != 0) continue;
    Writer w;
    put_magic(w, kApplyMagic);
    w.u64(tx.txid);
    w.u32(p);
    encode_keys(w, keys);
    (void)service_.submit_to_shard(p, part_client(tx.txid, p), 2,
                                   std::move(w).take());
  }
  if (tx.applied.size() == tx.by_shard.size()) {
    complete(tx, /*committed=*/true);
  }
}

void DtxCoordinator::complete(Tx& tx, bool committed) {
  if (tx.completed) return;
  tx.completed = true;
  if (committed) {
    ++committed_;
  } else {
    ++aborted_;
  }
  if (on_complete_) {
    on_complete_(tx.txid, committed, tx.origin_client, tx.origin_seq);
  }
}

DtxCoordinator::Tx* DtxCoordinator::apply_entry(ShardId shard,
                                                std::uint64_t client,
                                                const Bytes& payload) {
  // Only the synthetic client that owns a phase can move a tx: the same
  // bytes from an ordinary client (say a DECIDE(abort) for someone
  // else's tx) are application data.
  if (!is_bookkeeping(shard, client, payload)) return nullptr;
  try {
    if (has_magic(payload, kBeginMagic)) {
      Reader r(span(payload));
      (void)r.raw(4);
      const std::uint64_t txid = r.u64();
      const std::uint64_t origin_client = r.u64();
      const std::uint64_t origin_seq = r.u64();
      std::vector<Bytes> keys = decode_keys(r);
      r.expect_exhausted();
      if (keys.empty()) return nullptr;
      Tx& tx = txs_[txid];
      tx.txid = txid;
      if (tx.keys.empty()) place(tx, std::move(keys));
      if (shard != tx.coord) return nullptr;  // misplaced: not ours
      if (tx.origin_client == 0) {
        tx.origin_client = origin_client;
        tx.origin_seq = origin_seq;
      }
      tx.begun = true;
      return &tx;
    }
    if (has_magic(payload, kPrepareMagic) ||
        has_magic(payload, kApplyMagic)) {
      const bool is_apply = has_magic(payload, kApplyMagic);
      Reader r(span(payload));
      (void)r.raw(4);
      const std::uint64_t txid = r.u64();
      const ShardId claimed = r.u32();
      (void)decode_keys(r);
      r.expect_exhausted();
      if (claimed != shard) return nullptr;  // committed to the wrong log
      Tx& tx = txs_[txid];
      tx.txid = txid;
      (is_apply ? tx.applied : tx.prepared).insert(shard);
      return &tx;
    }
    if (has_magic(payload, kDecideMagic)) {
      Reader r(span(payload));
      (void)r.raw(4);
      const std::uint64_t txid = r.u64();
      const std::uint8_t commit = r.u8();
      r.expect_exhausted();
      if (commit > 1) return nullptr;
      Tx& tx = txs_[txid];
      tx.txid = txid;
      // The coordinator log totally orders decides and the engine's
      // (client, seq) dedup admits exactly one, so the first observed
      // decision is THE decision.
      if (tx.decision < 0) tx.decision = commit;
      return &tx;
    }
  } catch (const CodecError&) {
    // A malformed dtx-looking entry is application data, not ours.
  }
  return nullptr;
}

void DtxCoordinator::on_execute(ShardId shard,
                                const smr::ExecutedCommand& cmd) {
  Tx* tx = apply_entry(shard, cmd.client, cmd.payload);
  if (tx == nullptr) return;
  drive(*tx);
  arm_pump();
}

void DtxCoordinator::rebuild_from_logs() {
  for (ShardId s = 0; s < service_.shard_count(); ++s) {
    for (const smr::LogEntry& entry : service_.group(s).entries()) {
      (void)apply_entry(s, entry.client, entry.payload);
    }
  }
  for (auto& [txid, tx] : txs_) {
    if (!tx.completed) drive(tx);
  }
  arm_pump();
}

std::uint64_t DtxCoordinator::in_flight() const {
  std::uint64_t count = 0;
  for (const auto& [txid, tx] : txs_) {
    if (!tx.completed) ++count;
  }
  return count;
}

void DtxCoordinator::arm_pump() {
  if (pump_armed_ || in_flight() == 0) return;
  pump_armed_ = true;
  set_timer_(opts_.retry_period, [this] {
    pump_armed_ = false;
    for (auto& [txid, tx] : txs_) {
      if (tx.completed) continue;
      if (tx.begun && tx.decision < 0) ++tx.ticks;
      drive(tx);
    }
    arm_pump();
  });
}

}  // namespace probft::shard
