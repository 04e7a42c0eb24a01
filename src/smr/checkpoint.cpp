#include "smr/checkpoint.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "crypto/sha256.hpp"
#include "smr/smr_replica.hpp"

namespace probft::smr {

namespace {

/// Domain separators keep checkpoint votes, hints and per-slot consensus
/// signatures mutually unforgeable from one another.
constexpr std::string_view kCkptDomain = "probft-ckpt-v1";
constexpr std::string_view kHintDomain = "probft-hint-v1";

/// Sanity cap on last_exec entries (a forged state cannot allocate
/// unboundedly); generous against any realistic client population here.
constexpr std::size_t kMaxDedupEntries = 1 << 20;

/// Distinct hinted values tracked per slot before further ones are
/// ignored. Hinted slots need no cap of their own: only slots inside the
/// horizon are booked, and executed ones are erased.
constexpr std::size_t kMaxHintValues = 8;

/// Boundary slots tracked for checkpoint votes / pending snapshots at
/// once; older ones are evicted in favor of newer (a straggler's ancient
/// boundary will be covered by a peer's state transfer anyway).
constexpr std::size_t kMaxTrackedCkpts = 8;

/// Distinct state digests tracked per boundary.
constexpr std::size_t kMaxCkptDigests = 4;

/// While execution trails slots known to exist (opened locally, or merely
/// seen in peer traffic — the gap may exceed the window), a pull for the
/// oldest unexecuted slot goes out at this period (µs); peers that
/// executed it answer with signed hints for a window's worth of slots.
constexpr Duration kCatchupTimeout = 250'000;

Bytes encode_decide_record(std::uint64_t slot, const Bytes& value) {
  Writer w;
  w.u64(slot);
  w.bytes(value);
  return std::move(w).take();
}

}  // namespace

Bytes zero_digest() { return Bytes(crypto::Sha256::kDigestSize, 0); }

Bytes chain_digest(const Bytes& prev, const Bytes& value) {
  Writer w;
  w.raw(ByteSpan(prev.data(), prev.size()));
  w.bytes(ByteSpan(value.data(), value.size()));
  const Bytes blob = std::move(w).take();
  return crypto::sha256(ByteSpan(blob.data(), blob.size()));
}

void CheckpointState::encode(Writer& w) const {
  w.u64(slot);
  w.u64(exec_count);
  w.bytes(ByteSpan(log_digest.data(), log_digest.size()));
  w.vec(last_exec,
        [](Writer& ww, const std::pair<std::uint64_t, std::uint64_t>& e) {
          ww.u64(e.first);
          ww.u64(e.second);
        });
}

CheckpointState CheckpointState::decode(Reader& r) {
  CheckpointState state;
  state.slot = r.u64();
  state.exec_count = r.u64();
  state.log_digest = r.bytes();
  if (state.log_digest.size() != crypto::Sha256::kDigestSize) {
    throw CodecError("checkpoint state: bad digest size");
  }
  state.last_exec = r.vec<std::pair<std::uint64_t, std::uint64_t>>(
      [](Reader& rr) {
        const std::uint64_t client = rr.u64();
        return std::pair<std::uint64_t, std::uint64_t>{client, rr.u64()};
      },
      kMaxDedupEntries);
  for (std::size_t i = 1; i < state.last_exec.size(); ++i) {
    if (state.last_exec[i - 1].first >= state.last_exec[i].first) {
      throw CodecError("checkpoint state: dedup table not strictly sorted");
    }
  }
  return state;
}

Bytes CheckpointState::digest() const {
  Writer w;
  encode(w);
  const Bytes blob = std::move(w).take();
  return crypto::sha256(ByteSpan(blob.data(), blob.size()));
}

Bytes checkpoint_signing_bytes(std::uint64_t slot,
                               const Bytes& state_digest) {
  Writer w;
  w.str(kCkptDomain);
  w.u64(kGroupId);
  w.u64(slot);
  w.bytes(ByteSpan(state_digest.data(), state_digest.size()));
  return std::move(w).take();
}

Bytes hint_signing_bytes(std::uint64_t slot, const Bytes& value_digest) {
  Writer w;
  w.str(kHintDomain);
  w.u64(kGroupId);
  w.u64(slot);
  w.bytes(ByteSpan(value_digest.data(), value_digest.size()));
  return std::move(w).take();
}

void CheckpointVote::encode(Writer& w) const {
  w.u64(slot);
  w.bytes(ByteSpan(state_digest.data(), state_digest.size()));
  w.u32(signer);
  w.bytes(ByteSpan(signature.data(), signature.size()));
}

CheckpointVote CheckpointVote::decode(Reader& r) {
  CheckpointVote vote;
  vote.slot = r.u64();
  vote.state_digest = r.bytes();
  vote.signer = r.u32();
  vote.signature = r.bytes();
  if (vote.state_digest.size() != crypto::Sha256::kDigestSize) {
    throw CodecError("checkpoint vote: bad digest size");
  }
  return vote;
}

void CheckpointCert::encode(Writer& w) const {
  w.u64(slot);
  w.bytes(ByteSpan(state_digest.data(), state_digest.size()));
  w.vec(signatures, [](Writer& ww, const std::pair<ReplicaId, Bytes>& s) {
    ww.u32(s.first);
    ww.bytes(ByteSpan(s.second.data(), s.second.size()));
  });
}

CheckpointCert CheckpointCert::decode(Reader& r) {
  CheckpointCert cert;
  cert.slot = r.u64();
  cert.state_digest = r.bytes();
  if (cert.state_digest.size() != crypto::Sha256::kDigestSize) {
    throw CodecError("checkpoint cert: bad digest size");
  }
  cert.signatures = r.vec<std::pair<ReplicaId, Bytes>>(
      [](Reader& rr) {
        const ReplicaId signer = rr.u32();
        return std::pair<ReplicaId, Bytes>{signer, rr.bytes()};
      },
      /*max_items=*/4096);
  return cert;
}

bool verify_checkpoint_cert(const CheckpointCert& cert, std::uint32_t n,
                            std::uint32_t f, const crypto::CryptoSuite& suite,
                            const crypto::PublicKeyDir& keys) {
  const std::size_t quorum = 2 * static_cast<std::size_t>(f) + 1;
  if (cert.signatures.size() < quorum) return false;
  const Bytes msg =
      checkpoint_signing_bytes(cert.slot, cert.state_digest);
  std::set<ReplicaId> seen;
  for (const auto& [signer, signature] : cert.signatures) {
    if (signer == 0 || signer > n) return false;
    if (!seen.insert(signer).second) return false;  // duplicate signer
    if (!suite.verify(keys[signer], msg, signature)) {
      return false;
    }
  }
  return true;
}

const CatchUp::SignedTally::Entry* CatchUp::SignedTally::add(
    std::uint64_t slot, const Bytes& value, ReplicaId signer,
    Bytes signature) {
  auto it = slots.find(slot);
  if (it == slots.end()) {
    if (slots.size() >= max_slots) {
      if (slots.begin()->first >= slot) return nullptr;  // older than all
      slots.erase(slots.begin());
    }
    it = slots.emplace(slot, std::vector<Entry>{}).first;
  }
  auto& entries = it->second;
  auto eit = std::find_if(
      entries.begin(), entries.end(),
      [&value](const Entry& e) { return e.value == value; });
  if (eit == entries.end()) {
    if (entries.size() >= max_values) return nullptr;
    eit = entries.insert(entries.end(), Entry{value, {}});
  }
  eit->sigs.emplace(signer, std::move(signature));
  return &*eit;
}

CatchUp::CatchUp(const SmrConfig& cfg, const core::ProtocolHost& host,
                 AdoptFn adopt, JumpFn jump)
    : cfg_(cfg),
      host_(host),
      adopt_(std::move(adopt)),
      jump_(std::move(jump)),
      limits_{cfg.pipeline.batch_max_commands, kBatchMaxBytes},
      chain_(zero_digest()),
      votes_{kMaxCkptDigests, kMaxTrackedCkpts, {}},
      hints_{kMaxHintValues, std::numeric_limits<std::size_t>::max(), {}} {}

void CatchUp::recover(
    const std::function<void(std::uint64_t, Bytes)>& replay) {
  if (cfg_.wal == nullptr) return;
  recovering_ = true;
  const auto& snap = cfg_.wal->snapshot();
  if (snap.has_value()) {
    Reader r(*snap);
    CheckpointState state = CheckpointState::decode(r);
    CheckpointCert cert = CheckpointCert::decode(r);
    r.expect_exhausted();
    if (!certifies(state, cert)) {
      throw std::runtime_error("SmrReplica: WAL checkpoint fails its cert");
    }
    install(state, cert);
  }
  for (const Bytes& record : cfg_.wal->records()) {
    Reader r(record);
    const std::uint64_t slot = r.u64();
    Bytes value = r.bytes();
    r.expect_exhausted();
    if (slot != exec_slots()) continue;  // stale segment noise: skip
    if (!is_valid_batch(value, limits_)) {
      throw std::runtime_error("SmrReplica: corrupt decide record in WAL");
    }
    replay(slot, std::move(value));
  }
  recovered_slots_ = exec_slots();
  recovering_ = false;
}

void CatchUp::persist(std::uint64_t slot, const Bytes& value) {
  // Recovery replays records that are already on disk: no re-append.
  if (cfg_.wal == nullptr || recovering_) return;
  cfg_.wal->append(encode_decide_record(slot, value));
  cfg_.wal->sync();
}

void CatchUp::on_executed(
    Bytes value, std::uint64_t exec_count,
    const std::map<std::uint64_t, std::uint64_t>& last_exec) {
  log_.push_back(std::move(value));
  chain_ = chain_digest(chain_, log_.back());
  hints_.erase_below(exec_slots());

  const std::uint64_t interval = cfg_.pipeline.checkpoint_interval;
  const std::uint64_t slot = exec_slots();
  if (interval == 0 || slot % interval != 0) return;
  if (slot <= stable_slot_ || pending_states_.count(slot) != 0) return;
  CheckpointState state;
  state.slot = slot;
  state.exec_count = exec_count;
  state.log_digest = chain_;
  state.last_exec.assign(last_exec.begin(), last_exec.end());
  Bytes digest = state.digest();
  const Bytes msg = checkpoint_signing_bytes(slot, digest);
  Bytes sig = cfg_.suite->sign(cfg_.secret_key, msg);
  if (pending_states_.size() >= kMaxTrackedCkpts) {
    pending_states_.erase(pending_states_.begin());
  }
  pending_states_.emplace(slot, std::make_pair(std::move(state), digest));
  if (recovering_) {  // replay: the cluster voted long ago
    votes_.add(slot, digest, cfg_.id, std::move(sig));
    return;
  }
  Writer w;
  CheckpointVote{slot, digest, cfg_.id, sig}.encode(w);
  host_.broadcast(kSmrCkptTag, std::move(w).take());
  try_stabilize(slot, votes_.add(slot, digest, cfg_.id, std::move(sig)));
}

bool CatchUp::on_slot_frame(ReplicaId from, std::uint64_t slot,
                            std::uint8_t tag) {
  max_seen_slot_ = std::max(max_seen_slot_, slot + 1);
  if (slot >= exec_slots()) return false;
  if (tag != net::tags::kWish && tag != net::tags::kNewLeader) return true;
  // Executed here and the sender is stuck on it: answer with the outcome
  // instead of replaying a retired instance. Below our stable checkpoint
  // the certified summary is the only answer we still have.
  if (slot < log_base_) {
    send_state(from);
  } else {
    send_hint(from, slot);
  }
  return true;
}

void CatchUp::arm_pull() {
  if (pull_armed_ || exec_slots() >= max_seen_slot_) return;
  pull_armed_ = true;
  const std::uint64_t mark = exec_slots();
  host_.set_timer(kCatchupTimeout, [this, mark] {
    pull_armed_ = false;
    if (exec_slots() >= max_seen_slot_) return;
    // Execution stuck on the same slot a full period later: ask peers
    // that already executed it for the decided value.
    if (exec_slots() == mark) broadcast_pull();
    arm_pull();  // keep watching while behind
  });
}

void CatchUp::broadcast_pull() {
  Writer w;
  w.u64(exec_slots());
  host_.broadcast(kSmrPullTag, std::move(w).take());
}

void CatchUp::on_message(ReplicaId from, std::uint8_t tag,
                         const Bytes& payload) {
  switch (tag) {
    case kSmrHintTag:
      handle_hint(from, payload);
      break;
    case kSmrPullTag:
      handle_pull(from, payload);
      break;
    case kSmrCkptTag:
      handle_ckpt_vote(from, payload);
      break;
    case kSmrStateTag:
      handle_state(payload);  // trust comes from the cert, not the channel
      break;
    default:
      break;
  }
}

std::uint64_t CatchUp::horizon() const {
  return exec_slots() + 2 * static_cast<std::uint64_t>(cfg_.pipeline.window);
}

void CatchUp::send_hint(ReplicaId to, std::uint64_t slot) {
  // handle_pull answers a window's worth of slots per straggler, and
  // several stragglers typically ask for the same stretch — encode and
  // sign the hint once per slot and reuse the wire bytes (the signature
  // is deterministic, so the frame is bit-identical either way).
  auto it = hint_wire_.find(slot);
  if (it == hint_wire_.end()) {
    const Bytes& value = log_[slot - log_base_];
    const Bytes msg = hint_signing_bytes(slot, crypto::sha256(value));
    Bytes sig = cfg_.suite->sign(cfg_.secret_key, msg);
    Writer w;
    w.u64(slot);
    w.bytes(value);
    w.bytes(sig);
    it = hint_wire_.emplace(slot, std::move(w).take()).first;
  }
  host_.send(to, kSmrHintTag, it->second);
}

void CatchUp::send_state(ReplicaId to) {
  if (!stable_.empty()) host_.send(to, kSmrStateTag, stable_);
}

void CatchUp::handle_hint(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  const std::uint64_t slot = r.u64();
  Bytes value = r.bytes();
  Bytes signature = r.bytes();
  r.expect_exhausted();
  max_seen_slot_ = std::max(max_seen_slot_, slot + 1);
  if (slot < exec_slots() || slot >= horizon()) return;
  if (!is_valid_batch(value, limits_)) return;
  // A voucher only counts if the hint verifies under the claimed sender's
  // key: a peer that forges f+1 sender ids still commands one keypair, so
  // it can never assemble f+1 valid vouchers for an undecided value.
  const Bytes msg = hint_signing_bytes(slot, crypto::sha256(value));
  if (!cfg_.suite->verify(cfg_.public_keys[from], msg, signature)) return;
  const SignedTally::Entry* entry =
      hints_.add(slot, value, from, std::move(signature));
  // f + 1 distinct verified vouchers contain at least one correct replica
  // that executed the slot with this value.
  if (entry != nullptr &&
      entry->sigs.size() >= static_cast<std::size_t>(cfg_.f) + 1) {
    adopt_(slot, value);
  }
}

void CatchUp::handle_pull(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  const std::uint64_t slot = r.u64();
  r.expect_exhausted();
  if (slot < log_base_) {
    // The asked slot is below our truncation point: only the certified
    // checkpoint can cover it. Signed hints cover the retained stretch
    // above, so one answer advances the straggler past our base.
    send_state(from);
  }
  // Answer a window's worth of executed slots starting at the asked one,
  // so a straggler recovers window-per-round instead of slot-per-round.
  const std::uint64_t begin = std::max(slot, log_base_);
  const std::uint64_t upto = std::min<std::uint64_t>(
      exec_slots(), begin + cfg_.pipeline.window);
  for (std::uint64_t s = begin; s < upto; ++s) send_hint(from, s);
}

void CatchUp::handle_ckpt_vote(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  CheckpointVote vote = CheckpointVote::decode(r);
  r.expect_exhausted();
  const std::uint64_t interval = cfg_.pipeline.checkpoint_interval;
  if (vote.signer != from) return;  // channel and signature must agree
  if (interval == 0 || vote.slot % interval != 0) return;
  if (vote.slot <= stable_slot_) return;
  const Bytes msg = checkpoint_signing_bytes(vote.slot, vote.state_digest);
  if (!cfg_.suite->verify(cfg_.public_keys[vote.signer], msg,
                          vote.signature)) {
    return;
  }
  // A boundary vote also tells a straggler the cluster reached that slot.
  max_seen_slot_ = std::max(max_seen_slot_, vote.slot);
  try_stabilize(vote.slot,
                votes_.add(vote.slot, vote.state_digest, vote.signer,
                           std::move(vote.signature)));
  arm_pull();
}

void CatchUp::handle_state(const Bytes& payload) {
  Reader r(payload);
  CheckpointState state = CheckpointState::decode(r);
  CheckpointCert cert = CheckpointCert::decode(r);
  r.expect_exhausted();
  if (state.slot <= exec_slots()) return;  // not ahead of us
  if (certifies(state, cert)) install(state, cert);
}

void CatchUp::try_stabilize(std::uint64_t slot,
                            const SignedTally::Entry* votes) {
  const std::size_t quorum = 2 * static_cast<std::size_t>(cfg_.f) + 1;
  if (votes == nullptr || votes->sigs.size() < quorum) return;
  const auto pit = pending_states_.find(slot);
  if (pit == pending_states_.end() || votes->value != pit->second.second) {
    return;
  }
  if (slot <= stable_slot_) return;  // already stable
  CheckpointCert cert;
  cert.slot = slot;
  cert.state_digest = votes->value;
  cert.signatures.assign(votes->sigs.begin(), votes->sigs.end());
  set_stable(pit->second.first, cert);
}

void CatchUp::set_stable(const CheckpointState& state,
                         const CheckpointCert& cert) {
  const std::uint64_t slot = state.slot;
  Writer w;
  state.encode(w);
  cert.encode(w);
  stable_ = std::move(w).take();
  if (cfg_.wal != nullptr && !recovering_) {
    // Persist before truncating memory: the WAL's new segment carries the
    // retained tail [slot, exec), the snapshot record carries state + cert.
    std::vector<Bytes> tail;
    for (std::uint64_t s = slot; s < exec_slots(); ++s) {
      tail.push_back(encode_decide_record(s, log_[s - log_base_]));
    }
    cfg_.wal->checkpoint(slot, stable_, tail);
  }
  // Truncate below the checkpoint: all of the log when it is ahead of
  // our execution (state transfer).
  const std::uint64_t drop =
      std::min<std::uint64_t>(slot - log_base_, log_.size());
  log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(drop));
  log_base_ = slot;
  hint_wire_.erase(hint_wire_.begin(), hint_wire_.lower_bound(slot));
  pending_states_.erase(pending_states_.begin(),
                        pending_states_.upper_bound(slot));
  votes_.erase_below(slot + 1);
  stable_slot_ = slot;
}

void CatchUp::install(const CheckpointState& state,
                      const CheckpointCert& cert) {
  // Jump the log: everything below `slot` is summarized by the cert.
  const std::uint64_t slot = state.slot;  // > exec_slots(), caller-checked
  chain_ = state.log_digest;
  max_seen_slot_ = std::max(max_seen_slot_, slot);
  hints_.erase_below(slot);
  set_stable(state, cert);
  jump_(state);
}

bool CatchUp::certifies(const CheckpointState& state,
                        const CheckpointCert& cert) const {
  return cert.slot == state.slot && cert.state_digest == state.digest() &&
         verify_checkpoint_cert(cert, cfg_.n, cfg_.f, *cfg_.suite,
                                cfg_.public_keys);
}

}  // namespace probft::smr
