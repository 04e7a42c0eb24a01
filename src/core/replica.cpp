#include "core/replica.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "common/codec.hpp"
#include "common/log.hpp"
#include "crypto/sha256.hpp"

namespace probft::core {

namespace {

/// Leader's proposal-choice rule (Alg. 1 lines 7-8) shared with the
/// safeProposal re-check: the value prepared in the highest view by the
/// most replicas. Ties on the mode break toward the BytesLess-smallest
/// value (shortest, then lexicographic) so leader and verifiers agree.
/// Returns nullopt when no replica in M prepared anything (leader is free
/// to use myValue()).
std::optional<Bytes> choose_value(const std::vector<NewLeaderMsg>& m_set) {
  // One vote per SENDER, not per message: a Byzantine leader used to be
  // able to duplicate a single NewLeaderMsg to inflate its value's mode
  // count. The leader collects into a per-sender map and verifiers reject
  // duplicate senders outright, but the mode itself must also be immune to
  // repetition; keep the highest prepared view per sender (ties keep the
  // first occurrence) so leader and verifiers agree.
  std::map<ReplicaId, const NewLeaderMsg*> by_sender;
  for (const auto& m : m_set) {
    auto [it, inserted] = by_sender.try_emplace(m.sender, &m);
    if (!inserted && m.prepared_view > it->second->prepared_view) {
      it->second = &m;
    }
  }
  View vmax = 0;
  for (const auto& [id, m] : by_sender) vmax = std::max(vmax, m->prepared_view);
  if (vmax == 0) return std::nullopt;
  // Ordered: the first maximum found is the BytesLess-smallest value.
  std::map<Bytes, int, BytesLess> counts;
  for (const auto& [id, m] : by_sender) {
    if (m->prepared_view == vmax) ++counts[m->prepared_value];
  }
  const Bytes* best = nullptr;
  int best_count = 0;
  for (const auto& [value, count] : counts) {
    if (count > best_count) {
      best = &value;
      best_count = count;
    }
  }
  return *best;
}

// Verdict-key construction lives in core/verdict_cache.{hpp,cpp}; the
// alias keeps the call sites readable.
using VC = VerdictCache;

}  // namespace

// ---------------- ReplicaConfig ----------------

std::uint32_t ReplicaConfig::q() const {
  return static_cast<std::uint32_t>(
      std::ceil(l * std::sqrt(static_cast<double>(n))));
}

std::uint32_t ReplicaConfig::sample_size() const {
  const auto raw =
      static_cast<std::uint32_t>(std::ceil(o * static_cast<double>(q())));
  return std::min(raw, n);
}

std::uint32_t ReplicaConfig::det_quorum() const { return (n + f + 2) / 2; }

// ---------------- Construction ----------------

Replica::Replica(ReplicaConfig config, sync::SyncConfig sync_config,
                 ProtocolHost host)
    : cfg_(std::move(config)), host_(std::move(host)) {
  if (cfg_.id == 0 || cfg_.id > cfg_.n || cfg_.suite == nullptr ||
      cfg_.public_keys.size() != cfg_.n + 1) {
    throw std::invalid_argument("Replica: bad configuration");
  }
  if (!cfg_.valid) {
    cfg_.valid = [](const Bytes& v) { return !v.empty(); };
  }
  sync_config.n = cfg_.n;
  sync_config.f = cfg_.f;
  synchronizer_ = std::make_unique<sync::Synchronizer>(
      cfg_.id, sync_config,
      /*wish=*/
      [this](View v) {
        WishMsg wish;
        wish.view = v;
        wish.sender = cfg_.id;
        wish.sender_sig = cfg_.suite->sign(cfg_.secret_key,
                                           wish.signing_bytes());
        host_.broadcast(tag_byte(MsgTag::kWish), wish.to_bytes());
      },
      /*enter_view=*/[this](View v) { enter_view(v); },
      /*set_timer=*/host_.set_timer);
}

void Replica::start() { synchronizer_->start(); }

void Replica::start(View first) { synchronizer_->start(first); }

// ---------------- Dispatch ----------------

void Replica::on_message(ReplicaId from, std::uint8_t tag,
                         const Bytes& payload) {
  try {
    switch (static_cast<MsgTag>(tag)) {
      case MsgTag::kPropose:
        handle_propose(payload);
        break;
      case MsgTag::kPrepare:
        handle_phase(MsgTag::kPrepare, payload);
        break;
      case MsgTag::kCommit:
        handle_phase(MsgTag::kCommit, payload);
        break;
      case MsgTag::kNewLeader:
        handle_new_leader(payload);
        break;
      case MsgTag::kWish:
        handle_wish(from, payload);
        break;
      default:
        break;  // unknown tag from a Byzantine sender: ignore
    }
  } catch (const CodecError&) {
    // Malformed (Byzantine) message: drop.
  }
}

// ---------------- View transitions ----------------

void Replica::enter_view(View v) {
  cur_view_ = v;
  cur_val_.clear();
  voted_ = false;
  block_view_ = false;
  proposal_.reset();
  proposed_this_view_ = false;
  committed_this_view_ = false;

  // Garbage-collect state from older views.
  std::erase_if(pending_proposes_,
                [v](const auto& kv) { return kv.first < v; });
  std::erase_if(new_leader_msgs_,
                [v](const auto& kv) { return kv.first < v; });
  std::erase_if(prepares_, [v](const auto& kv) { return kv.first.first < v; });
  std::erase_if(commits_, [v](const auto& kv) { return kv.first.first < v; });

  if (v == 1) {
    if (leader_for(v) == cfg_.id) {
      // Lines 2-3: first-view leader proposes its own value directly.
      SignedProposal prop;
      prop.view = v;
      prop.value = cfg_.my_value;
      prop.leader_sig = cfg_.suite->sign(
          cfg_.secret_key, SignedProposal::signing_bytes(v, prop.value));
      ProposeMsg msg;
      msg.proposal = std::move(prop);
      msg.sender = cfg_.id;
      msg.sender_sig =
          cfg_.suite->sign(cfg_.secret_key, msg.signing_bytes());
      host_.broadcast(tag_byte(MsgTag::kPropose), msg.to_bytes());
      proposed_this_view_ = true;
      pending_proposes_.emplace(v, std::move(msg));  // self-delivery
    }
  } else {
    // Line 5: report the latest prepared value to the new leader.
    send_new_leader();
    try_lead();
  }
  try_vote();
  try_prepare_quorum();
  try_commit_quorum();
}

void Replica::send_new_leader() {
  NewLeaderMsg msg;
  msg.view = cur_view_;
  msg.prepared_view = prepared_view_;
  msg.prepared_value = prepared_value_;
  msg.cert = prepared_cert_;
  msg.sender = cfg_.id;
  msg.sender_sig = cfg_.suite->sign(cfg_.secret_key, msg.signing_bytes());
  host_.send(leader_for(cur_view_), tag_byte(MsgTag::kNewLeader),
              msg.to_bytes());
}

// ---------------- Propose path ----------------

void Replica::handle_propose(const Bytes& raw) {
  ProposeMsg msg = ProposeMsg::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  const View v = msg.proposal.view;
  // Only the view's leader may propose. Checking here (not just inside
  // safeProposal at vote time) matters because the buffer keeps the FIRST
  // message per view: without it, any replica could send a garbage Propose
  // for a future view that shadows the honest leader's proposal out of the
  // buffer forever, stalling that view.
  if (msg.sender != leader_for(v)) return;
  if (!propose_sender_sig_ok(msg)) return;
  if (check_equivocation(msg.proposal, tag_byte(MsgTag::kPropose), raw)) {
    return;
  }
  if (v < cur_view_) return;
  pending_proposes_.emplace(v, std::move(msg));  // keep the first per view
  if (v == cur_view_) try_vote();
}

void Replica::try_vote() {
  if (block_view_ || voted_) return;
  const auto it = pending_proposes_.find(cur_view_);
  if (it == pending_proposes_.end()) return;
  const ProposeMsg& msg = it->second;
  if (!safe_proposal(msg)) {
    pending_proposes_.erase(it);
    return;
  }
  // Lines 14-16.
  cur_val_ = msg.proposal.value;
  voted_ = true;
  proposal_ = msg;

  const Bytes alpha = crypto::sample_alpha(cur_view_, "prepare");
  auto sampled = crypto::vrf_sample(*cfg_.suite, cfg_.secret_key,
                                    ByteSpan(alpha.data(), alpha.size()),
                                    cfg_.n, cfg_.sample_size());
  PhaseMsg prepare;
  prepare.proposal = proposal_->proposal;
  prepare.sample = std::move(sampled.sample);
  prepare.vrf_proof = std::move(sampled.proof);
  prepare.sender = cfg_.id;
  prepare.sender_sig = cfg_.suite->sign(
      cfg_.secret_key, prepare.signing_bytes(MsgTag::kPrepare));
  multicast_phase(MsgTag::kPrepare, prepare.sample, prepare.to_bytes());
  // Early-arriving Prepares may already complete a quorum.
  try_prepare_quorum();
}

// ---------------- Leader path ----------------

void Replica::handle_new_leader(const Bytes& raw) {
  NewLeaderMsg msg = NewLeaderMsg::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  if (msg.view < cur_view_) return;
  if (leader_for(msg.view) != cfg_.id) return;
  const View view = msg.view;
  const ReplicaId sender = msg.sender;
  // One slot per sender; a re-sending replica can only RAISE its reported
  // prepared view (mirrors choose_value's dedup rule, so repetition can
  // never skew the mode count). Check the slot BEFORE the O(q)
  // signature/certificate verification so duplicate spam is nearly free;
  // find() (not operator[]) keeps unverified traffic from growing the map.
  const auto slot_it = new_leader_msgs_.find(view);
  if (slot_it != new_leader_msgs_.end()) {
    const auto existing = slot_it->second.find(sender);
    if (existing != slot_it->second.end() &&
        msg.prepared_view <= existing->second.prepared_view) {
      return;  // duplicate or stale report: nothing new to lead with
    }
  }
  if (!new_leader_sig_ok(msg)) return;
  if (!valid_new_leader(msg)) return;
  new_leader_msgs_[view].insert_or_assign(sender, std::move(msg));
  if (view == cur_view_) try_lead();
}

void Replica::try_lead() {
  if (cur_view_ <= 1 || proposed_this_view_ ||
      leader_for(cur_view_) != cfg_.id) {
    return;
  }
  const auto it = new_leader_msgs_.find(cur_view_);
  if (it == new_leader_msgs_.end() ||
      it->second.size() < cfg_.det_quorum()) {
    return;
  }
  // Lines 7-12: propose the value prepared in the highest view by the most
  // replicas, else our own value. The collected messages are MOVED into
  // the justification (each one drags a q-sized certificate along, so the
  // former deep copy here was O(n·√n) in signatures).
  std::vector<NewLeaderMsg> m_set;
  m_set.reserve(it->second.size());
  for (auto& [sender, msg] : it->second) m_set.push_back(std::move(msg));
  new_leader_msgs_.erase(it);

  const auto chosen = choose_value(m_set);
  SignedProposal prop;
  prop.view = cur_view_;
  prop.value = chosen.value_or(cfg_.my_value);
  prop.leader_sig = cfg_.suite->sign(
      cfg_.secret_key,
      SignedProposal::signing_bytes(cur_view_, prop.value));

  ProposeMsg msg;
  msg.proposal = std::move(prop);
  msg.justification = std::move(m_set);
  msg.sender = cfg_.id;
  msg.sender_sig = cfg_.suite->sign(cfg_.secret_key, msg.signing_bytes());
  host_.broadcast(tag_byte(MsgTag::kPropose), msg.to_bytes());
  proposed_this_view_ = true;
  pending_proposes_.emplace(cur_view_, std::move(msg));  // self-delivery
  try_vote();
}

// ---------------- Prepare / Commit path ----------------

void Replica::handle_phase(MsgTag tag, const Bytes& raw) {
  PhaseMsg msg = PhaseMsg::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  // Equivocation detection applies to any message carrying a leader-signed
  // tuple (lines 23-25), before the regular preconditions.
  if (check_equivocation(msg.proposal, static_cast<std::uint8_t>(tag), raw)) {
    return;
  }
  if (msg.proposal.view < cur_view_) return;
  if (!verify_phase_msg(tag, msg, cfg_.id)) return;

  const ValueKey key{msg.proposal.view, value_digest(msg.proposal.value)};
  auto& bucket = (tag == MsgTag::kPrepare ? prepares_ : commits_)[key];
  bucket.emplace(msg.sender, std::move(msg));

  if (tag == MsgTag::kPrepare) {
    try_prepare_quorum();
  } else {
    try_commit_quorum();
  }
}

void Replica::try_prepare_quorum() {
  // Lines 17-20.
  if (block_view_ || !voted_ || committed_this_view_) return;
  const ValueKey key{cur_view_, value_digest(cur_val_)};
  const auto it = prepares_.find(key);
  if (it == prepares_.end() || it->second.size() < cfg_.q()) return;

  prepared_view_ = cur_view_;
  prepared_value_ = cur_val_;
  prepared_cert_.clear();
  prepared_cert_.reserve(cfg_.q());
  for (const auto& [sender, msg] : it->second) {
    if (prepared_cert_.size() == cfg_.q()) break;
    prepared_cert_.push_back(std::make_shared<PhaseMsg>(msg));
  }

  const Bytes alpha = crypto::sample_alpha(cur_view_, "commit");
  auto sampled = crypto::vrf_sample(*cfg_.suite, cfg_.secret_key,
                                    ByteSpan(alpha.data(), alpha.size()),
                                    cfg_.n, cfg_.sample_size());
  PhaseMsg commit;
  commit.proposal = proposal_->proposal;
  commit.sample = std::move(sampled.sample);
  commit.vrf_proof = std::move(sampled.proof);
  commit.sender = cfg_.id;
  commit.sender_sig = cfg_.suite->sign(
      cfg_.secret_key, commit.signing_bytes(MsgTag::kCommit));
  committed_this_view_ = true;
  multicast_phase(MsgTag::kCommit, commit.sample, commit.to_bytes());
  try_commit_quorum();
}

void Replica::try_commit_quorum() {
  // Lines 21-22.
  if (block_view_ || decided_) return;
  if (prepared_view_ != cur_view_ || !committed_this_view_) return;
  const ValueKey key{cur_view_, value_digest(prepared_value_)};
  const auto it = commits_.find(key);
  if (it == commits_.end() || it->second.size() < cfg_.q()) return;
  decide(prepared_value_);
}

void Replica::decide(const Bytes& value) {
  if (decided_) return;
  decided_ = Decision{cur_view_, value};
  log::debug("replica %u decided in view %llu", cfg_.id,
             static_cast<unsigned long long>(cur_view_));
  if (cfg_.stop_sync_on_decide) synchronizer_->stop();
  if (host_.on_decide) host_.on_decide(cur_view_, value);
}

// ---------------- Equivocation (lines 23-25) ----------------

bool Replica::check_equivocation(const SignedProposal& p, std::uint8_t tag,
                                 const Bytes& raw) {
  // Only current-view tuples participate. While a view is blocked,
  // messages for FUTURE views must keep flowing into the buffers
  // (returning "drop" for them used to stall the next view: its proposal
  // and phase messages arriving early were silently discarded); past-view
  // messages are filtered by each handler's own view checks.
  if (p.view != cur_view_) return false;
  if (block_view_) return true;  // blocked: drop current-view traffic
  if (!voted_) return false;
  if (p.value == cur_val_) return false;
  if (!verify_leader_sig(p)) return false;  // not actually leader-signed
  // The leader signed two different values for this view: block the view
  // and gossip both leader-signed tuples (the offending message plus our
  // own accepted proposal).
  block_view_ = true;
  log::debug("replica %u blocked view %llu (leader equivocation)", cfg_.id,
             static_cast<unsigned long long>(cur_view_));
  host_.broadcast(tag, raw);
  if (proposal_) {
    host_.broadcast(tag_byte(MsgTag::kPropose), proposal_->to_bytes());
  }
  return true;
}

// ---------------- Wishes ----------------

void Replica::handle_wish(ReplicaId from, const Bytes& raw) {
  WishMsg msg = WishMsg::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n || msg.sender != from) return;
  if (!cfg_.suite->verify(cfg_.public_keys[msg.sender], msg.signing_bytes(),
                          msg.sender_sig)) {
    return;
  }
  synchronizer_->on_wish(msg.sender, msg.view);
}

// ---------------- Predicates ----------------

std::optional<bool> Replica::cache_lookup(const Bytes& key) const {
  return cache_.lookup(key);
}

void Replica::cache_store(Bytes key, bool ok) const {
  cache_.store(std::move(key), ok);
}

bool Replica::propose_sender_sig_ok(const ProposeMsg& m) const {
  const Bytes msg = m.signing_bytes();
  if (!cfg_.fast_verify) {
    return cfg_.suite->verify(cfg_.public_keys[m.sender],
                              ByteSpan(msg.data(), msg.size()), m.sender_sig);
  }
  // Cached under 'R' so the verify pool can pre-warm it; the signing bytes
  // are digest-based, so rebuilding them here is cheap even for a Propose
  // carrying a large justification.
  Bytes key = VC::signed_key('R', ByteSpan(msg.data(), msg.size()),
                             m.sender_sig);
  if (const auto hit = cache_lookup(key)) return *hit;
  const bool ok = cfg_.suite->verify(
      cfg_.public_keys[m.sender], ByteSpan(msg.data(), msg.size()),
      m.sender_sig);
  cache_store(std::move(key), ok);
  return ok;
}

bool Replica::verify_leader_sig(const SignedProposal& p) const {
  const ReplicaId leader = leader_for(p.view);
  const Bytes msg = SignedProposal::signing_bytes(p.view, p.value);
  if (!cfg_.fast_verify) {
    return cfg_.suite->verify(cfg_.public_keys[leader],
                              ByteSpan(msg.data(), msg.size()), p.leader_sig);
  }
  Bytes key = VC::signed_key('L', ByteSpan(msg.data(), msg.size()),
                             p.leader_sig);
  if (const auto hit = cache_lookup(key)) return *hit;
  const bool ok = cfg_.suite->verify(
      cfg_.public_keys[leader], ByteSpan(msg.data(), msg.size()), p.leader_sig);
  cache_store(std::move(key), ok);
  return ok;
}

bool Replica::phase_vrf_ok(MsgTag tag, const PhaseMsg& m) const {
  const char* phase = tag == MsgTag::kPrepare ? "prepare" : "commit";
  const Bytes alpha = crypto::sample_alpha(m.proposal.view, phase);
  return crypto::vrf_sample_verify(
      *cfg_.suite, cfg_.public_keys[m.sender],
      ByteSpan(alpha.data(), alpha.size()), cfg_.n, cfg_.sample_size(),
      m.sample, m.vrf_proof);
}

bool Replica::phase_full_ok(MsgTag tag, const PhaseMsg& m) const {
  const auto compute = [&] {
    if (!verify_leader_sig(m.proposal)) return false;
    const Bytes msg = m.signing_bytes(tag);
    return cfg_.suite->verify(cfg_.public_keys[m.sender],
                              ByteSpan(msg.data(), msg.size()),
                              m.sender_sig) &&
           phase_vrf_ok(tag, m);
  };
  if (!cfg_.fast_verify) return compute();
  Bytes key = VC::digest_key(m.content_digest(), 'P',
                         static_cast<std::uint8_t>(tag));
  if (const auto hit = cache_lookup(key)) return *hit;
  const bool ok = compute();
  cache_store(std::move(key), ok);
  return ok;
}

bool Replica::new_leader_sig_ok(const NewLeaderMsg& m) const {
  if (!cfg_.fast_verify) {
    const Bytes msg = m.signing_bytes();
    return cfg_.suite->verify(cfg_.public_keys[m.sender],
                              ByteSpan(msg.data(), msg.size()), m.sender_sig);
  }
  Bytes key = VC::digest_key(m.content_digest(), 'N', 0);
  if (const auto hit = cache_lookup(key)) return *hit;
  const Bytes msg = m.signing_bytes();
  const bool ok = cfg_.suite->verify(
      cfg_.public_keys[m.sender], ByteSpan(msg.data(), msg.size()),
      m.sender_sig);
  cache_store(std::move(key), ok);
  return ok;
}

void Replica::prefetch_new_leaders(
    const std::vector<const NewLeaderMsg*>& msgs,
    bool include_sender_sigs) const {
  if (!cfg_.fast_verify) return;
  struct Pending {
    Bytes key;
    ReplicaId signer = 0;
    Bytes message;  // the signing bytes, built only for uncached items
    const Bytes* sig = nullptr;
    const PhaseMsg* pm = nullptr;  // non-null: a 'P' (full phase) verdict
    MsgTag tag = MsgTag::kPrepare;
  };
  std::vector<Pending> pending;
  // Keys collected this round (the cache itself only fills after the
  // batch). Digest-keyed like the cache, so reuse its hash.
  std::unordered_set<Bytes, VC::DigestHash> queued;
  const auto uncached = [&](const Bytes& key) {
    return !cache_.contains(key) && queued.insert(key).second;
  };
  for (const NewLeaderMsg* nl : msgs) {
    if (nl->sender == 0 || nl->sender > cfg_.n) continue;
    if (include_sender_sigs) {
      Bytes key = VC::digest_key(nl->content_digest(), 'N', 0);
      if (uncached(key)) {
        pending.push_back({std::move(key), nl->sender, nl->signing_bytes(),
                           &nl->sender_sig, nullptr, MsgTag::kPrepare});
      }
    }
    for (const PhaseMsgPtr& pmp : nl->cert) {
      const PhaseMsg& pm = *pmp;
      if (pm.sender == 0 || pm.sender > cfg_.n) continue;
      Bytes key = VC::digest_key(pm.content_digest(), 'P',
                             static_cast<std::uint8_t>(MsgTag::kPrepare));
      if (uncached(key)) {
        pending.push_back({std::move(key), pm.sender,
                           pm.signing_bytes(MsgTag::kPrepare),
                           &pm.sender_sig, &pm, MsgTag::kPrepare});
      }
    }
  }
  if (pending.empty()) return;

  std::vector<crypto::SigCheck> checks;
  checks.reserve(pending.size());
  for (const Pending& p : pending) {
    const Bytes& pk = cfg_.public_keys[p.signer];
    checks.push_back({ByteSpan(pk.data(), pk.size()),
                      ByteSpan(p.message.data(), p.message.size()),
                      ByteSpan(p.sig->data(), p.sig->size())});
  }
  // One combined check for every sender signature; on failure (at least
  // one bad signature somewhere) fall back to per-item verification so
  // every cached verdict stays exact. Leader signatures ride through the
  // cached verify_leader_sig (a justification has very few distinct
  // proposal tuples), and VRF proofs are per-item by nature.
  const bool all_sigs_ok = cfg_.suite->verify_batch(checks);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Pending& p = pending[i];
    bool ok = all_sigs_ok ||
              cfg_.suite->verify(checks[i].public_key, checks[i].message,
                                 checks[i].signature);
    if (ok && p.pm != nullptr) {
      ok = verify_leader_sig(p.pm->proposal) && phase_vrf_ok(p.tag, *p.pm);
    }
    cache_store(std::move(p.key), ok);
  }
}

bool Replica::verify_phase_msg(MsgTag tag, const PhaseMsg& m,
                               ReplicaId addressee) const {
  if (m.sender == 0 || m.sender > cfg_.n) return false;
  if (m.proposal.view == 0) return false;
  if (!std::binary_search(m.sample.begin(), m.sample.end(), addressee)) {
    return false;
  }
  return phase_full_ok(tag, m);
}

bool Replica::prepared_cert_valid(const std::vector<PhaseMsgPtr>& cert,
                                  View view, const Bytes& val,
                                  ReplicaId j) const {
  if (view == 0) return false;
  std::set<ReplicaId> senders;
  for (const auto& mp : cert) {
    const PhaseMsg& m = *mp;
    if (m.proposal.view != view || m.proposal.value != val) return false;
    if (!verify_phase_msg(MsgTag::kPrepare, m, j)) return false;
    senders.insert(m.sender);
  }
  return senders.size() >= cfg_.q();
}

bool Replica::valid_new_leader(const NewLeaderMsg& m) const {
  if (m.prepared_view >= m.view) return false;  // includes view != 0 => < v
  if (m.prepared_view == 0) return m.prepared_value.empty();
  prefetch_new_leaders({&m}, /*include_sender_sigs=*/false);
  return prepared_cert_valid(m.cert, m.prepared_view, m.prepared_value,
                             m.sender);
}

bool Replica::safe_proposal(const ProposeMsg& m) const {
  const View v = m.proposal.view;
  if (v < 1) return false;
  if (m.sender != leader_for(v)) return false;
  if (!verify_leader_sig(m.proposal)) return false;
  if (!cfg_.valid(m.proposal.value)) return false;
  if (v == 1) return true;

  // Fast path: resolve every not-yet-cached signature in the whole
  // justification with one batch-verify call, so the per-message walk
  // below (and its heavy certificate overlap) runs on cache hits.
  if (cfg_.fast_verify) {
    std::vector<const NewLeaderMsg*> refs;
    refs.reserve(m.justification.size());
    for (const auto& nl : m.justification) refs.push_back(&nl);
    prefetch_new_leaders(refs, /*include_sender_sigs=*/true);
  }

  // Deterministic quorum of valid NewLeader messages from distinct
  // senders. Duplicated senders are rejected outright: counting them (or
  // letting them into choose_value) would let a Byzantine leader pad the
  // quorum or skew the prepared-value mode by repeating one message.
  std::set<ReplicaId> senders;
  for (const auto& nl : m.justification) {
    if (nl.view != v) return false;
    if (nl.sender == 0 || nl.sender > cfg_.n) return false;
    if (!senders.insert(nl.sender).second) return false;
    if (!new_leader_sig_ok(nl)) return false;
    if (!valid_new_leader(nl)) return false;
  }
  if (senders.size() < cfg_.det_quorum()) return false;

  // Re-do the leader's computation (lines 7-8).
  const auto chosen = choose_value(m.justification);
  if (chosen.has_value()) return m.proposal.value == *chosen;
  return true;  // nothing prepared: leader may propose any valid value
}

// ---------------- Helpers ----------------

Bytes Replica::value_digest(const Bytes& value) const {
  return crypto::sha256(ByteSpan(value.data(), value.size()));
}

void Replica::multicast_phase(MsgTag tag, const std::vector<ReplicaId>& sample,
                              const Bytes& payload) {
  for (const ReplicaId to : sample) {
    host_.send(to, static_cast<std::uint8_t>(tag), payload);
  }
}

}  // namespace probft::core
