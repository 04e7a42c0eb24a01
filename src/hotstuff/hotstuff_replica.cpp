#include "hotstuff/hotstuff_replica.hpp"

#include <algorithm>
#include <stdexcept>

namespace probft::hotstuff {

using core::MsgTag;
using core::WishMsg;

// ---------------- QuorumCert ----------------

void QuorumCert::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(view);
  w.bytes(value);
  w.vec(signers, [](Writer& out, ReplicaId id) { out.u32(id); });
  w.vec(sigs, [](Writer& out, const Bytes& sig) { out.bytes(sig); });
}

QuorumCert QuorumCert::decode(Reader& r) {
  QuorumCert out;
  out.phase = static_cast<HsPhase>(r.u8());
  out.view = r.u64();
  out.value = r.bytes();
  out.signers = r.vec<ReplicaId>([](Reader& in) { return in.u32(); });
  out.sigs = r.vec<Bytes>([](Reader& in) { return in.bytes(); });
  return out;
}

Bytes QuorumCert::vote_signing_bytes(HsPhase phase, View view,
                                     const Bytes& value) {
  Writer w;
  w.str("hotstuff/vote");
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(view);
  w.bytes(value);
  return std::move(w).take();
}

// ---------------- HsNewView ----------------

void HsNewView::encode(Writer& w) const {
  w.u64(view);
  prepare_qc.encode(w);
  w.u32(sender);
  w.bytes(sender_sig);
}

HsNewView HsNewView::decode(Reader& r) {
  HsNewView out;
  out.view = r.u64();
  out.prepare_qc = QuorumCert::decode(r);
  out.sender = r.u32();
  out.sender_sig = r.bytes();
  return out;
}

Bytes HsNewView::signing_bytes() const {
  Writer w;
  w.str("hotstuff/newview");
  w.u64(view);
  prepare_qc.encode(w);
  w.u32(sender);
  return std::move(w).take();
}

Bytes HsNewView::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

HsNewView HsNewView::from_bytes(ByteSpan data) {
  Reader r(data);
  auto out = decode(r);
  r.expect_exhausted();
  return out;
}

// ---------------- HsProposal ----------------

void HsProposal::encode(Writer& w) const {
  w.u64(view);
  w.bytes(value);
  high_qc.encode(w);
  w.u32(sender);
  w.bytes(sender_sig);
}

HsProposal HsProposal::decode(Reader& r) {
  HsProposal out;
  out.view = r.u64();
  out.value = r.bytes();
  out.high_qc = QuorumCert::decode(r);
  out.sender = r.u32();
  out.sender_sig = r.bytes();
  return out;
}

Bytes HsProposal::signing_bytes() const {
  Writer w;
  w.str("hotstuff/proposal");
  w.u64(view);
  w.bytes(value);
  high_qc.encode(w);
  w.u32(sender);
  return std::move(w).take();
}

Bytes HsProposal::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

HsProposal HsProposal::from_bytes(ByteSpan data) {
  Reader r(data);
  auto out = decode(r);
  r.expect_exhausted();
  return out;
}

// ---------------- HsVote ----------------

void HsVote::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(view);
  w.bytes(value);
  w.u32(sender);
  w.bytes(sender_sig);
}

HsVote HsVote::decode(Reader& r) {
  HsVote out;
  out.phase = static_cast<HsPhase>(r.u8());
  out.view = r.u64();
  out.value = r.bytes();
  out.sender = r.u32();
  out.sender_sig = r.bytes();
  return out;
}

Bytes HsVote::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

HsVote HsVote::from_bytes(ByteSpan data) {
  Reader r(data);
  auto out = decode(r);
  r.expect_exhausted();
  return out;
}

// ---------------- HsQcMsg ----------------

void HsQcMsg::encode(Writer& w) const {
  qc.encode(w);
  w.u32(sender);
  w.bytes(sender_sig);
}

HsQcMsg HsQcMsg::decode(Reader& r) {
  HsQcMsg out;
  out.qc = QuorumCert::decode(r);
  out.sender = r.u32();
  out.sender_sig = r.bytes();
  return out;
}

Bytes HsQcMsg::signing_bytes() const {
  Writer w;
  w.str("hotstuff/qcmsg");
  qc.encode(w);
  w.u32(sender);
  return std::move(w).take();
}

Bytes HsQcMsg::to_bytes() const {
  Writer w;
  encode(w);
  return std::move(w).take();
}

HsQcMsg HsQcMsg::from_bytes(ByteSpan data) {
  Reader r(data);
  auto out = decode(r);
  r.expect_exhausted();
  return out;
}

// ---------------- HotStuffReplica ----------------

HotStuffReplica::HotStuffReplica(HotStuffConfig config,
                                 sync::SyncConfig sync_config, core::ProtocolHost host)
    : cfg_(std::move(config)), host_(std::move(host)) {
  if (cfg_.id == 0 || cfg_.id > cfg_.n || cfg_.suite == nullptr ||
      cfg_.public_keys.size() != cfg_.n + 1) {
    throw std::invalid_argument("HotStuffReplica: bad configuration");
  }
  if (!cfg_.valid) {
    cfg_.valid = [](const Bytes& v) { return !v.empty(); };
  }
  synchronizer_ = std::make_unique<sync::Synchronizer>(
      cfg_.id, cfg_.n, cfg_.f, sync_config,
      [this](View v) {
        host_.broadcast(static_cast<std::uint8_t>(HsTag::kWish),
                        WishMsg::sign(v, cfg_.id, *cfg_.suite,
                                      cfg_.secret_key));
      },
      [this](View v) { enter_view(v); },
      host_.set_timer);
}

void HotStuffReplica::start() { synchronizer_->start(); }

void HotStuffReplica::on_message(ReplicaId from, std::uint8_t tag,
                                 const Bytes& payload) {
  try {
    switch (static_cast<HsTag>(tag)) {
      case HsTag::kNewView:
        handle_new_view(payload);
        break;
      case HsTag::kProposal:
        handle_proposal(payload);
        break;
      case HsTag::kVote:
        handle_vote(payload);
        break;
      case HsTag::kQc:
        handle_qc(payload);
        break;
      case HsTag::kWish:
        handle_wish(from, payload);
        break;
      default:
        break;
    }
  } catch (const CodecError&) {
    // Malformed message: drop.
  }
}

void HotStuffReplica::enter_view(View v) {
  cur_view_ = v;
  cur_val_.clear();
  voted_prepare_ = false;
  proposed_this_view_ = false;
  new_views_.clear();
  votes_.clear();
  qc_sent_.clear();
  qc_applied_.clear();

  const ReplicaId leader = leader_of(v, cfg_.n);
  if (v == 1) {
    if (leader == cfg_.id) try_lead();
  } else {
    HsNewView nv;
    nv.view = v;
    nv.prepare_qc = prepare_qc_;
    nv.sender = cfg_.id;
    nv.sender_sig = cfg_.suite->sign(cfg_.secret_key, nv.signing_bytes());
    host_.send(leader, static_cast<std::uint8_t>(HsTag::kNewView),
                nv.to_bytes());
  }
}

void HotStuffReplica::handle_new_view(const Bytes& raw) {
  HsNewView msg = HsNewView::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  if (msg.view != cur_view_ || leader_of(msg.view, cfg_.n) != cfg_.id) return;
  if (!cfg_.suite->verify(cfg_.public_keys[msg.sender], msg.signing_bytes(),
                          msg.sender_sig)) {
    return;
  }
  if (!msg.prepare_qc.is_null() && !verify_qc(msg.prepare_qc)) return;
  const ReplicaId sender = msg.sender;
  new_views_.emplace(sender, std::move(msg));
  try_lead();
}

void HotStuffReplica::try_lead() {
  if (proposed_this_view_ || leader_of(cur_view_, cfg_.n) != cfg_.id) return;
  QuorumCert high_qc;  // null
  if (cur_view_ > 1) {
    if (new_views_.size() < cfg_.quorum()) return;
    for (const auto& [sender, nv] : new_views_) {
      if (!nv.prepare_qc.is_null() &&
          (high_qc.is_null() || nv.prepare_qc.view > high_qc.view)) {
        high_qc = nv.prepare_qc;
      }
    }
  }

  HsProposal prop;
  prop.view = cur_view_;
  prop.value = high_qc.is_null() ? cfg_.my_value : high_qc.value;
  prop.high_qc = high_qc;
  prop.sender = cfg_.id;
  prop.sender_sig = cfg_.suite->sign(cfg_.secret_key, prop.signing_bytes());
  proposed_this_view_ = true;
  const Bytes raw = prop.to_bytes();
  host_.broadcast(static_cast<std::uint8_t>(HsTag::kProposal), raw);
  handle_proposal(raw);  // leader processes its own proposal
}

bool HotStuffReplica::safe_node(const HsProposal& p) const {
  if (locked_qc_.is_null()) return true;
  // Safety rule: extend the locked value...
  if (p.value == locked_qc_.value) return true;
  // ...or present a higher QC (liveness rule).
  return !p.high_qc.is_null() && p.high_qc.view > locked_qc_.view;
}

void HotStuffReplica::handle_proposal(const Bytes& raw) {
  HsProposal msg = HsProposal::from_bytes(raw);
  if (msg.view != cur_view_ || voted_prepare_) return;
  if (msg.sender != leader_of(msg.view, cfg_.n)) return;
  if (!cfg_.suite->verify(cfg_.public_keys[msg.sender], msg.signing_bytes(),
                          msg.sender_sig)) {
    return;
  }
  if (!cfg_.valid(msg.value)) return;
  if (!msg.high_qc.is_null()) {
    if (!verify_qc(msg.high_qc)) return;
    if (msg.high_qc.value != msg.value) return;  // QC must justify the value
  }
  if (!safe_node(msg)) return;

  cur_val_ = msg.value;
  voted_prepare_ = true;
  send_vote(HsPhase::kPrepare, cur_val_);
}

void HotStuffReplica::send_vote(HsPhase phase, const Bytes& value) {
  HsVote vote;
  vote.phase = phase;
  vote.view = cur_view_;
  vote.value = value;
  vote.sender = cfg_.id;
  vote.sender_sig = cfg_.suite->sign(
      cfg_.secret_key,
      QuorumCert::vote_signing_bytes(phase, cur_view_, value));
  const ReplicaId leader = leader_of(cur_view_, cfg_.n);
  const Bytes raw = vote.to_bytes();
  if (leader == cfg_.id) {
    handle_vote(raw);  // leader counts its own vote without a network hop
  } else {
    host_.send(leader, static_cast<std::uint8_t>(HsTag::kVote), raw);
  }
}

void HotStuffReplica::handle_vote(const Bytes& raw) {
  HsVote msg = HsVote::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  if (msg.view != cur_view_ || leader_of(msg.view, cfg_.n) != cfg_.id) return;
  if (!cfg_.suite->verify(
          cfg_.public_keys[msg.sender],
          QuorumCert::vote_signing_bytes(msg.phase, msg.view, msg.value),
          msg.sender_sig)) {
    return;
  }
  const HsPhase phase = msg.phase;
  const ReplicaId sender = msg.sender;
  votes_[phase].emplace(sender, std::move(msg));
  leader_check_votes(phase);
}

void HotStuffReplica::leader_check_votes(HsPhase phase) {
  if (qc_sent_.contains(phase)) return;
  const auto it = votes_.find(phase);
  if (it == votes_.end()) return;
  // Count votes matching the proposed value.
  std::vector<const HsVote*> matching;
  for (const auto& [sender, vote] : it->second) {
    if (vote.value == cur_val_) matching.push_back(&vote);
  }
  if (matching.size() < cfg_.quorum()) return;

  QuorumCert qc;
  qc.phase = phase;
  qc.view = cur_view_;
  qc.value = cur_val_;
  for (const auto* vote : matching) {
    if (qc.signers.size() == cfg_.quorum()) break;
    qc.signers.push_back(vote->sender);
    qc.sigs.push_back(vote->sender_sig);
  }
  qc_sent_.insert(phase);
  broadcast_qc(std::move(qc));
}

void HotStuffReplica::broadcast_qc(QuorumCert qc) {
  HsQcMsg msg;
  msg.qc = std::move(qc);
  msg.sender = cfg_.id;
  msg.sender_sig = cfg_.suite->sign(cfg_.secret_key, msg.signing_bytes());
  const Bytes raw = msg.to_bytes();
  host_.broadcast(static_cast<std::uint8_t>(HsTag::kQc), raw);
  handle_qc(raw);  // leader applies its own QC
}

void HotStuffReplica::handle_qc(const Bytes& raw) {
  HsQcMsg msg = HsQcMsg::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  if (msg.qc.view != cur_view_) return;
  if (!cfg_.suite->verify(cfg_.public_keys[msg.sender], msg.signing_bytes(),
                          msg.sender_sig)) {
    return;
  }
  if (!verify_qc(msg.qc)) return;

  switch (msg.qc.phase) {
    case HsPhase::kPrepare:
      prepare_qc_ = msg.qc;
      if (qc_applied_.insert(HsPhase::kPrepare).second) {
        send_vote(HsPhase::kPreCommit, msg.qc.value);
      }
      break;
    case HsPhase::kPreCommit:
      locked_qc_ = msg.qc;
      if (qc_applied_.insert(HsPhase::kPreCommit).second) {
        send_vote(HsPhase::kCommit, msg.qc.value);
      }
      break;
    case HsPhase::kCommit:
      if (!decided_) {
        decided_ = Decision{cur_view_, msg.qc.value};
        if (host_.on_decide) host_.on_decide(cur_view_, msg.qc.value);
      }
      break;
  }
}

void HotStuffReplica::handle_wish(ReplicaId from, const Bytes& raw) {
  const auto view = WishMsg::verify(from, raw, *cfg_.suite, cfg_.public_keys);
  if (view) synchronizer_->on_wish(from, *view);
}

bool HotStuffReplica::verify_qc(const QuorumCert& qc) const {
  if (qc.is_null()) return false;
  if (qc.signers.size() != qc.sigs.size()) return false;
  std::set<ReplicaId> distinct;
  const Bytes payload =
      QuorumCert::vote_signing_bytes(qc.phase, qc.view, qc.value);
  for (std::size_t i = 0; i < qc.signers.size(); ++i) {
    const ReplicaId signer = qc.signers[i];
    if (signer == 0 || signer > cfg_.n) return false;
    if (!cfg_.suite->verify(cfg_.public_keys[signer], payload, qc.sigs[i])) {
      return false;
    }
    distinct.insert(signer);
  }
  return distinct.size() >= cfg_.quorum();
}

}  // namespace probft::hotstuff
