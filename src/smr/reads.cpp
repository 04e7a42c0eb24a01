#include "smr/reads.hpp"

#include <algorithm>
#include <utility>

#include "smr/smr_replica.hpp"

namespace probft::smr {

namespace {

/// Domain separators keep lease grants and read-index attestations
/// mutually unforgeable from each other and from every other signing
/// surface (consensus votes, checkpoint votes, hints).
constexpr std::string_view kLeaseDomain = "probft-lease-v1";
constexpr std::string_view kReadIndexDomain = "probft-readidx-v1";

/// Cap on view-change frames deferred while lease promises are live (the
/// group wishes at most once per view timeout, plus once per slot opened
/// past view 1, so this is far above any honest volume).
constexpr std::size_t kMaxDeferredVc = 4096;

const std::uint8_t* find_eq(ByteSpan payload) {
  return std::find(payload.data(), payload.data() + payload.size(),
                   static_cast<std::uint8_t>('='));
}

void check_version(std::uint8_t version) {
  if (version != kReadWireVersion) {
    throw CodecError("read wire: unknown version");
  }
}

/// A reader past the version and kind bytes of a `kind` message.
Reader open_msg(ByteSpan data, std::uint8_t kind) {
  Reader r(data);
  check_version(r.u8());
  if (r.u8() != kind) throw CodecError("read wire: unexpected message kind");
  return r;
}

/// A writer holding the version and kind bytes of a `kind` message.
Writer begin_msg(std::uint8_t kind) {
  Writer w;
  w.u8(kReadWireVersion);
  w.u8(kind);
  return w;
}

Bytes read_sig(Reader& r) {
  Bytes sig = r.bytes();
  if (sig.size() > kMaxReadSigBytes) {
    throw CodecError("read wire: signature exceeds cap");
  }
  return sig;
}

bool verify_one(const crypto::CryptoSuite& suite,
                const crypto::PublicKeyDir& keys, std::uint32_t n,
                ReplicaId signer, const Bytes& msg, const Bytes& sig) {
  if (signer == 0 || signer > n) return false;
  return suite.verify(keys[signer], msg, sig);
}

}  // namespace

ByteSpan read_view_key(ByteSpan payload) {
  const std::uint8_t* eq = find_eq(payload);
  return ByteSpan(payload.data(),
                  static_cast<std::size_t>(eq - payload.data()));
}

ByteSpan read_view_value(ByteSpan payload) {
  const std::uint8_t* eq = find_eq(payload);
  const std::uint8_t* end = payload.data() + payload.size();
  if (eq == end) return payload;
  return ByteSpan(eq + 1, static_cast<std::size_t>(end - (eq + 1)));
}

void ReadView::apply(std::uint64_t slot, std::uint64_t index,
                     const Bytes& payload) {
  const ByteSpan key = read_view_key(payload);
  const ByteSpan value = read_view_value(payload);
  ReadViewEntry& entry =
      entries_[std::string(reinterpret_cast<const char*>(key.data()),
                           key.size())];
  entry.value.assign(value.data(), value.data() + value.size());
  entry.slot = slot;
  entry.index = index;
}

void ReadView::set_watermark(std::uint64_t exec_slots) {
  watermark_ = std::max(watermark_, exec_slots);
}

const ReadViewEntry* ReadView::lookup(ByteSpan key) const {
  const auto it = entries_.find(
      std::string(reinterpret_cast<const char*>(key.data()), key.size()));
  if (it == entries_.end()) return nullptr;
  return &it->second;
}

std::uint8_t peek_read_msg_kind(ByteSpan data) {
  Reader r(data);
  check_version(r.u8());
  return r.u8();
}

Bytes lease_signing_bytes(std::uint64_t epoch, ReplicaId leader,
                          ReplicaId granter) {
  Writer w;
  w.str(kLeaseDomain);
  w.u64(epoch);
  w.u32(leader);
  w.u32(granter);
  return std::move(w).take();
}

Bytes read_index_signing_bytes(ReplicaId requester, std::uint64_t rid,
                               std::uint64_t watermark) {
  Writer w;
  w.str(kReadIndexDomain);
  w.u32(requester);
  w.u64(rid);
  w.u64(watermark);
  return std::move(w).take();
}

Bytes LeaseRequest::encode() const {
  Writer w = begin_msg(kLeaseRequestKind);
  w.u64(epoch);
  w.u32(leader);
  return std::move(w).take();
}

LeaseRequest LeaseRequest::decode(ByteSpan data) {
  Reader r = open_msg(data, kLeaseRequestKind);
  LeaseRequest req;
  req.epoch = r.u64();
  req.leader = r.u32();
  r.expect_exhausted();
  return req;
}

Bytes LeaseGrant::encode() const {
  Writer w = begin_msg(kLeaseGrantKind);
  w.u64(epoch);
  w.u32(leader);
  w.u32(granter);
  w.bytes(signature);
  return std::move(w).take();
}

LeaseGrant LeaseGrant::decode(ByteSpan data) {
  Reader r = open_msg(data, kLeaseGrantKind);
  LeaseGrant grant;
  grant.epoch = r.u64();
  grant.leader = r.u32();
  grant.granter = r.u32();
  grant.signature = read_sig(r);
  r.expect_exhausted();
  return grant;
}

bool LeaseGrant::verify(const crypto::CryptoSuite& suite,
                        const crypto::PublicKeyDir& keys,
                        std::uint32_t n) const {
  return verify_one(suite, keys, n, granter,
                    lease_signing_bytes(epoch, leader, granter), signature);
}

Bytes ReadIndexRequest::encode() const {
  Writer w = begin_msg(kReadIndexRequestKind);
  w.u64(rid);
  w.u32(requester);
  return std::move(w).take();
}

ReadIndexRequest ReadIndexRequest::decode(ByteSpan data) {
  Reader r = open_msg(data, kReadIndexRequestKind);
  ReadIndexRequest req;
  req.rid = r.u64();
  req.requester = r.u32();
  r.expect_exhausted();
  return req;
}

Bytes ReadIndexAttest::encode() const {
  Writer w = begin_msg(kReadIndexAttestKind);
  w.u64(rid);
  w.u32(requester);
  w.u64(watermark);
  w.u32(signer);
  w.bytes(signature);
  return std::move(w).take();
}

ReadIndexAttest ReadIndexAttest::decode(ByteSpan data) {
  Reader r = open_msg(data, kReadIndexAttestKind);
  ReadIndexAttest attest;
  attest.rid = r.u64();
  attest.requester = r.u32();
  attest.watermark = r.u64();
  attest.signer = r.u32();
  attest.signature = read_sig(r);
  r.expect_exhausted();
  return attest;
}

bool ReadIndexAttest::verify(const crypto::CryptoSuite& suite,
                             const crypto::PublicKeyDir& keys,
                             std::uint32_t n) const {
  return verify_one(suite, keys, n, signer,
                    read_index_signing_bytes(requester, rid, watermark),
                    signature);
}

// ---- ReadPath ----

ReadPath::ReadPath(const SmrConfig& cfg, const core::ProtocolHost& host,
                   std::function<void()> pull)
    : cfg_(cfg), host_(host), pull_(std::move(pull)) {}

ReplicaId ReadPath::lease_leader() const {
  return leader_of(1, cfg_.n);
}

void ReadPath::on_decide(View view) {
  // A decide at view > 1 proves a view change happened, so the view-1
  // leader's "every decided write went through me" premise is dead — it
  // must stop serving lease reads AND every replica that saw the decide
  // must stop granting it fresh leases.
  if (cfg_.pipeline.serve_reads &&
      (view > 1 || (view == 0 && lease_leader() == cfg_.id))) {
    lease_poisoned_ = true;
  }
}

void ReadPath::on_prefix_jump(std::uint64_t exec_slots) {
  // submit() refuses every read from here on; whatever waits is refused
  // now, so no read is ever answered from the gapped view.
  read_view_gap_ = true;
  if (cfg_.pipeline.serve_reads) lease_poisoned_ = true;
  read_view_.set_watermark(exec_slots);
  for (const auto& [at, read] : std::exchange(parked_reads_, {})) {
    reject_read(read.cb);
  }
  for (const auto& [rid, wait] : std::exchange(read_index_waits_, {})) {
    reject_read(wait.cb);
  }
}

void ReadPath::on_replay() {
  if (cfg_.pipeline.serve_reads) lease_poisoned_ = true;
}

bool ReadPath::hold_back(ReplicaId to, std::uint8_t tag, Bytes& frame) {
  if (promise_live_ == 0 ||
      (tag != net::tags::kNewLeader && tag != net::tags::kWish)) {
    return false;
  }
  if (deferred_vc_.size() < kMaxDeferredVc) {
    deferred_vc_.push_back(DeferredFrame{to, std::move(frame)});
  }
  return true;
}

void ReadPath::answer_read(const Bytes& key, const ReadCallback& cb) {
  ReadResult result;
  result.status = net::ReplyStatus::kExecuted;
  result.index = read_view_.watermark();
  if (const ReadViewEntry* entry = read_view_.lookup(key)) {
    result.slot = entry->slot;
    result.value = entry->value;
  }
  ++reads_served_;
  if (cb) cb(result);
}

void ReadPath::reject_read(const ReadCallback& cb) {
  ++reads_rejected_;
  if (cb) cb(ReadResult{});  // default-constructed = kRejected
}

void ReadPath::park_read(Bytes key, std::uint64_t wait_slots,
                         ReadCallback cb) {
  if (exec_slots() >= wait_slots) {
    answer_read(key, cb);
    return;
  }
  const std::uint64_t token = ++next_read_token_;
  parked_reads_.emplace(wait_slots,
                        ParkedRead{token, std::move(key), std::move(cb)});
  pull_();  // the wait point may already exist at peers
  host_.set_timer(kReadTimeout, [this, token] {
    for (auto it = parked_reads_.begin(); it != parked_reads_.end(); ++it) {
      if (it->second.token != token) continue;
      const ReadCallback cb = std::move(it->second.cb);
      parked_reads_.erase(it);
      reject_read(cb);
      return;
    }
  });
}

void ReadPath::drain_parked_reads() {
  while (!parked_reads_.empty() &&
         parked_reads_.begin()->first <= exec_slots()) {
    ParkedRead ready = std::move(parked_reads_.begin()->second);
    parked_reads_.erase(parked_reads_.begin());
    answer_read(ready.key, ready.cb);
  }
}

void ReadPath::request_lease() {
  if (lease_poisoned_ || !cfg_.pipeline.serve_reads ||
      lease_leader() != cfg_.id) {
    return;
  }
  const std::uint64_t epoch = ++lease_epoch_;
  lease_grants_.clear();
  host_.broadcast(kSmrLeaseTag, LeaseRequest{epoch, cfg_.id}.encode());
  // Validity clocks from the broadcast: every granter's promise starts
  // strictly later and runs lease_skew longer, so this timer fires first.
  host_.set_timer(cfg_.pipeline.lease_duration, [this, epoch] {
    lease_expired_epoch_ = std::max(lease_expired_epoch_, epoch);
  });
  if (cfg_.f == 0) {
    lease_granted_epoch_ = std::max(lease_granted_epoch_, epoch);
  }
  // Renew at half the validity so a healthy leader never drops the lease.
  host_.set_timer(std::max<Duration>(1, cfg_.pipeline.lease_duration / 2),
                  [this] { request_lease(); });
}

void ReadPath::on_lease(ReplicaId from, const Bytes& payload) {
  if (!cfg_.pipeline.serve_reads) return;
  const std::uint8_t kind = peek_read_msg_kind(payload);
  if (kind == kLeaseRequestKind) {
    const LeaseRequest req = LeaseRequest::decode(payload);
    // Only the engine's fixed view-1 leader may hold a lease, the channel
    // must agree with the claimed leader, and a replica that witnessed a
    // view > 1 decide refuses for good (lease_poisoned_).
    if (req.leader != from || from != lease_leader() || from == cfg_.id) {
      return;
    }
    if (lease_poisoned_ || req.epoch <= last_granted_epoch_) return;
    // A deferred frame means this replica already wants the leader
    // deposed; extending the promise would contradict that and wedge the
    // fleet (renewals at duration/2 would keep promise_live_ > 0 forever,
    // so the held-back wishes would never flush). Refuse the renewal —
    // refusing is always safe (grants only enable reads) — and let the
    // existing promises lapse, which releases the view-change traffic.
    if (!deferred_vc_.empty()) return;
    last_granted_epoch_ = req.epoch;
    // Promise window: strictly outlives the leader's validity (which
    // started at the broadcast, before this message arrived).
    ++promise_live_;
    host_.set_timer(
        cfg_.pipeline.lease_duration + cfg_.pipeline.lease_skew, [this] {
          if (--promise_live_ != 0 || deferred_vc_.empty()) return;
          // Last promise gone: release the view-change traffic the
          // promise window held back.
          for (DeferredFrame& d : std::exchange(deferred_vc_, {})) {
            if (d.to == 0) {
              host_.broadcast(net::tags::kSmr, std::move(d.frame));
            } else {
              host_.send(d.to, net::tags::kSmr, std::move(d.frame));
            }
          }
        });
    LeaseGrant grant{req.epoch, req.leader, cfg_.id, {}};
    grant.signature = cfg_.suite->sign(
        cfg_.secret_key, lease_signing_bytes(req.epoch, req.leader, cfg_.id));
    host_.send(from, kSmrLeaseTag, grant.encode());
  } else if (kind == kLeaseGrantKind) {
    const LeaseGrant grant = LeaseGrant::decode(payload);
    if (grant.leader != cfg_.id || grant.granter != from) return;
    if (grant.epoch != lease_epoch_ || lease_poisoned_) return;
    if (!grant.verify(*cfg_.suite, cfg_.public_keys, cfg_.n)) return;
    lease_grants_.insert(grant.granter);
    // 2f grants plus this leader itself = 2f+1 promises live.
    if (lease_grants_.size() >= 2 * static_cast<std::size_t>(cfg_.f)) {
      lease_granted_epoch_ = std::max(lease_granted_epoch_, grant.epoch);
    }
  }
}

void ReadPath::begin_read_index(Bytes key, ReadCallback cb) {
  const std::uint64_t rid = ++next_rid_;
  ReadIndexWait& wait = read_index_waits_[rid];
  wait.key = std::move(key);
  wait.cb = std::move(cb);
  wait.marks.emplace(cfg_.id, exec_slots());
  host_.broadcast(kSmrReadIndexTag, ReadIndexRequest{rid, cfg_.id}.encode());
  host_.set_timer(kReadTimeout, [this, rid] {
    const auto it = read_index_waits_.find(rid);
    if (it == read_index_waits_.end()) return;
    const ReadCallback cb = std::move(it->second.cb);
    read_index_waits_.erase(it);
    reject_read(cb);
  });
  maybe_complete_read_index(rid);  // f = 0: the self-mark is the quorum
}

void ReadPath::maybe_complete_read_index(std::uint64_t rid) {
  const auto it = read_index_waits_.find(rid);
  if (it == read_index_waits_.end()) return;
  const std::size_t quorum = 2 * static_cast<std::size_t>(cfg_.f) + 1;
  if (it->second.marks.size() < quorum) return;
  std::uint64_t read_index = 0;
  for (const auto& [signer, mark] : it->second.marks) {
    read_index = std::max(read_index, mark);
  }
  ReadIndexWait wait = std::move(it->second);
  read_index_waits_.erase(it);
  park_read(std::move(wait.key), read_index, std::move(wait.cb));
}

void ReadPath::on_read_index(ReplicaId from, const Bytes& payload) {
  if (!cfg_.pipeline.serve_reads) return;
  const std::uint8_t kind = peek_read_msg_kind(payload);
  if (kind == kReadIndexRequestKind) {
    const ReadIndexRequest req = ReadIndexRequest::decode(payload);
    if (req.requester != from) return;  // channel and claim must agree
    ReadIndexAttest attest{req.rid, req.requester, exec_slots(), cfg_.id, {}};
    const Bytes msg = read_index_signing_bytes(attest.requester, attest.rid,
                                               attest.watermark);
    attest.signature = cfg_.suite->sign(cfg_.secret_key, msg);
    host_.send(from, kSmrReadIndexTag, attest.encode());
  } else if (kind == kReadIndexAttestKind) {
    const ReadIndexAttest attest = ReadIndexAttest::decode(payload);
    if (attest.requester != cfg_.id || attest.signer != from) return;
    if (read_index_waits_.count(attest.rid) == 0) return;
    if (!attest.verify(*cfg_.suite, cfg_.public_keys, cfg_.n)) return;
    read_index_waits_[attest.rid].marks.emplace(attest.signer,
                                                attest.watermark);
    maybe_complete_read_index(attest.rid);
  }
}

void ReadPath::submit(Bytes key, net::ReadConsistency consistency,
                      std::uint64_t min_index, std::uint64_t lease_index,
                      ReadCallback cb) {
  if (!cfg_.pipeline.serve_reads || read_view_gap_) {
    reject_read(cb);
    return;
  }
  switch (consistency) {
    case net::ReadConsistency::kStaleOk:
      answer_read(key, cb);
      return;
    case net::ReadConsistency::kSequential:
      park_read(std::move(key), min_index, std::move(cb));
      return;
    case net::ReadConsistency::kLinearizable:
      if (lease_held()) {
        // Every write decided so far rode a slot this leader proposed,
        // and proposals only go out for slots below lease_index — so
        // executing through it covers every write linearized before
        // this read arrived.
        ++lease_reads_;
        park_read(std::move(key), lease_index, std::move(cb));
        return;
      }
      begin_read_index(std::move(key), std::move(cb));
      return;
  }
  reject_read(cb);  // unreachable: decode validated the mode
}

}  // namespace probft::smr
