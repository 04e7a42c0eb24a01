#include "shard/dtx.hpp"

#include <algorithm>
#include <utility>

#include "common/codec.hpp"

namespace probft::shard {

namespace {

/// Entry magics, 4 raw bytes in front of every dtx payload. The client
/// request and the two log-entry kinds each get their own so a log scan
/// can classify entries without context.
constexpr char kRequestMagic[] = "DTX1";
constexpr char kBeginMagic[] = "DXB1";
constexpr char kApplyMagic[] = "DXA1";

/// Keys per transaction (bounds tracker state against hostile requests).
constexpr std::size_t kMaxDtxKeys = 64;

/// Pump period: incomplete transactions re-drive their pending
/// transitions at this cadence (covers lost forwards and restarts).
constexpr Duration kPumpPeriod = 100'000;  // 100 ms

[[nodiscard]] bool has_magic(const Bytes& payload, const char* magic) {
  return payload.size() >= 4 && std::equal(magic, magic + 4, payload.begin());
}

void put_magic(Writer& w, const char* magic) {
  w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>(magic), 4));
}

void encode_keys(Writer& w, const std::vector<Bytes>& keys) {
  w.vec(keys, [](Writer& wr, const Bytes& key) { wr.bytes(key); });
}

[[nodiscard]] std::vector<Bytes> decode_keys(Reader& r) {
  return r.vec<Bytes>([](Reader& rd) { return rd.bytes(); }, kMaxDtxKeys);
}

}  // namespace

DtxCoordinator::DtxCoordinator(ShardedSmr& service,
                               sync::Synchronizer::TimerSetter set_timer)
    : service_(service), set_timer_(std::move(set_timer)) {}

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
  Reader r(payload);
  (void)r.raw(4);
  const std::uint64_t txid = r.u64();
  if (has_magic(payload, kBeginMagic)) return client == coord_client(txid);
  if (has_magic(payload, kApplyMagic)) {
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
  w.bytes(payload);
  const Bytes buf = std::move(w).take();
  return key_hash(buf);
}

std::uint64_t DtxCoordinator::coord_client(std::uint64_t txid) {
  Writer w;
  put_magic(w, "dxtC");
  w.u64(txid);
  const Bytes buf = std::move(w).take();
  return key_hash(buf) | kReservedClientBit;
}

std::uint64_t DtxCoordinator::part_client(std::uint64_t txid, ShardId shard) {
  Writer w;
  put_magic(w, "dxtP");
  w.u64(txid);
  w.u32(shard);
  const Bytes buf = std::move(w).take();
  return key_hash(buf) | kReservedClientBit;
}

void DtxCoordinator::place(Tx& tx, std::vector<Bytes> keys) {
  tx.keys = std::move(keys);
  tx.by_shard.clear();
  for (const Bytes& key : tx.keys) {
    tx.by_shard[service_.shard_of(key)].push_back(key);
  }
  tx.coord = service_.shard_of(tx.keys.front());
}

bool DtxCoordinator::submit(std::uint64_t client, std::uint64_t seq,
                            const Bytes& payload) {
  if (!is_dtx_request(payload)) return false;
  std::vector<Bytes> keys;
  try {
    Reader r(payload);
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

bool DtxCoordinator::completed_status(std::uint64_t txid) const {
  const auto it = txs_.find(txid);
  return it != txs_.end() && it->second.completed;
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
  bool all_applied = true;
  for (const auto& [p, keys] : tx.by_shard) {
    if (tx.applied.count(p) != 0) continue;
    all_applied = false;
    Writer w;
    put_magic(w, kApplyMagic);
    w.u64(tx.txid);
    w.u32(p);
    encode_keys(w, keys);
    (void)service_.submit_to_shard(p, part_client(tx.txid, p), 1,
                                   std::move(w).take());
  }
  if (all_applied) complete(tx);
}

void DtxCoordinator::complete(Tx& tx) {
  tx.completed = true;
  ++committed_;
  if (on_complete_) on_complete_(tx.txid, tx.origin_client, tx.origin_seq);
}

DtxCoordinator::Tx* DtxCoordinator::apply_entry(ShardId shard,
                                                std::uint64_t client,
                                                const Bytes& payload) {
  // Only the synthetic client that owns a phase can move a tx: the same
  // bytes from an ordinary client (say an APPLY for someone else's tx)
  // are application data.
  if (!is_bookkeeping(shard, client, payload)) return nullptr;
  try {
    if (has_magic(payload, kBeginMagic)) {
      Reader r(payload);
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
    if (has_magic(payload, kApplyMagic)) {
      Reader r(payload);
      (void)r.raw(4);
      const std::uint64_t txid = r.u64();
      const ShardId claimed = r.u32();
      (void)decode_keys(r);
      r.expect_exhausted();
      if (claimed != shard) return nullptr;  // committed to the wrong log
      Tx& tx = txs_[txid];
      tx.txid = txid;
      tx.applied.insert(shard);
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
  for (auto& [txid, tx] : txs_) drive(tx);
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
  set_timer_(kPumpPeriod, [this] {
    pump_armed_ = false;
    for (auto& [txid, tx] : txs_) drive(tx);
    arm_pump();
  });
}

}  // namespace probft::shard
