#include "pbft/pbft_replica.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"

namespace probft::pbft {

namespace {

/// PBFT leader rule: re-propose the value prepared in the highest view.
/// (Deterministic quorum intersection guarantees all certificates for the
/// highest prepared view carry the same value.)
std::optional<Bytes> choose_value(const std::vector<NewLeaderMsg>& m_set) {
  View vmax = 0;
  const Bytes* val = nullptr;
  for (const auto& m : m_set) {
    if (m.prepared_view > vmax) {
      vmax = m.prepared_view;
      val = &m.prepared_value;
    }
  }
  if (vmax == 0) return std::nullopt;
  return *val;
}

}  // namespace

PbftReplica::PbftReplica(PbftConfig config, sync::SyncConfig sync_config,
                         core::ProtocolHost host)
    : cfg_(std::move(config)), host_(std::move(host)) {
  if (cfg_.id == 0 || cfg_.id > cfg_.n || cfg_.suite == nullptr ||
      cfg_.public_keys.size() != cfg_.n + 1) {
    throw std::invalid_argument("PbftReplica: bad configuration");
  }
  if (!cfg_.valid) {
    cfg_.valid = [](const Bytes& v) { return !v.empty(); };
  }
  synchronizer_ = std::make_unique<sync::Synchronizer>(
      cfg_.id, cfg_.n, cfg_.f, sync_config,
      [this](View v) {
        host_.broadcast(core::tag_byte(MsgTag::kWish),
                        WishMsg::sign(v, cfg_.id, *cfg_.suite,
                                      cfg_.secret_key));
      },
      [this](View v) { enter_view(v); },
      host_.set_timer);
}

void PbftReplica::start() { synchronizer_->start(); }

void PbftReplica::on_message(ReplicaId from, std::uint8_t tag,
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
        break;
    }
  } catch (const CodecError&) {
    // Malformed message: drop.
  }
}

void PbftReplica::enter_view(View v) {
  cur_view_ = v;
  cur_val_.clear();
  voted_ = false;
  proposal_.reset();
  proposed_this_view_ = false;
  committed_this_view_ = false;

  std::erase_if(pending_proposes_,
                [v](const auto& kv) { return kv.first < v; });
  std::erase_if(new_leader_msgs_,
                [v](const auto& kv) { return kv.first < v; });
  std::erase_if(prepares_, [v](const auto& kv) { return kv.first.first < v; });
  std::erase_if(commits_, [v](const auto& kv) { return kv.first.first < v; });

  if (v == 1) {
    if (leader_of(v, cfg_.n) == cfg_.id) {
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
      host_.broadcast(core::tag_byte(MsgTag::kPropose), msg.to_bytes());
      proposed_this_view_ = true;
      pending_proposes_.emplace(v, std::move(msg));
    }
  } else {
    send_new_leader();
    try_lead();
  }
  try_vote();
  try_prepare_quorum();
  try_commit_quorum();
}

void PbftReplica::send_new_leader() {
  NewLeaderMsg msg;
  msg.view = cur_view_;
  msg.prepared_view = prepared_view_;
  msg.prepared_value = prepared_value_;
  msg.cert = prepared_cert_;
  msg.sender = cfg_.id;
  msg.sender_sig = cfg_.suite->sign(cfg_.secret_key, msg.signing_bytes());
  host_.send(leader_of(cur_view_, cfg_.n), core::tag_byte(MsgTag::kNewLeader),
              msg.to_bytes());
}

void PbftReplica::handle_propose(const Bytes& raw) {
  ProposeMsg msg = ProposeMsg::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  if (!cfg_.suite->verify(cfg_.public_keys[msg.sender], msg.signing_bytes(),
                          msg.sender_sig)) {
    return;
  }
  const View v = msg.proposal.view;
  if (v < cur_view_) return;
  pending_proposes_.emplace(v, std::move(msg));  // first proposal wins
  if (v == cur_view_) try_vote();
}

void PbftReplica::try_vote() {
  if (voted_) return;
  const auto it = pending_proposes_.find(cur_view_);
  if (it == pending_proposes_.end()) return;
  const ProposeMsg& msg = it->second;
  if (!safe_proposal(msg)) {
    pending_proposes_.erase(it);
    return;
  }
  cur_val_ = msg.proposal.value;
  voted_ = true;
  proposal_ = msg;

  PhaseMsg prepare;
  prepare.proposal = proposal_->proposal;
  prepare.sender = cfg_.id;
  prepare.sender_sig = cfg_.suite->sign(
      cfg_.secret_key, prepare.signing_bytes(MsgTag::kPrepare));
  const Bytes raw = prepare.to_bytes();
  host_.broadcast(core::tag_byte(MsgTag::kPrepare), raw);
  // Count our own Prepare locally.
  prepares_[{cur_view_, value_digest(cur_val_)}].emplace(cfg_.id,
                                                         std::move(prepare));
  try_prepare_quorum();
}

void PbftReplica::handle_new_leader(const Bytes& raw) {
  NewLeaderMsg msg = NewLeaderMsg::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  if (msg.view < cur_view_) return;
  if (leader_of(msg.view, cfg_.n) != cfg_.id) return;
  if (!cfg_.suite->verify(cfg_.public_keys[msg.sender], msg.signing_bytes(),
                          msg.sender_sig)) {
    return;
  }
  if (!valid_new_leader(msg)) return;
  const View view = msg.view;
  const ReplicaId sender = msg.sender;
  new_leader_msgs_[view].emplace(sender, std::move(msg));
  if (view == cur_view_) try_lead();
}

void PbftReplica::try_lead() {
  if (cur_view_ <= 1 || proposed_this_view_ ||
      leader_of(cur_view_, cfg_.n) != cfg_.id) {
    return;
  }
  const auto it = new_leader_msgs_.find(cur_view_);
  if (it == new_leader_msgs_.end() || it->second.size() < cfg_.quorum()) {
    return;
  }
  std::vector<NewLeaderMsg> m_set;
  m_set.reserve(it->second.size());
  for (const auto& [sender, msg] : it->second) m_set.push_back(msg);

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
  host_.broadcast(core::tag_byte(MsgTag::kPropose), msg.to_bytes());
  proposed_this_view_ = true;
  pending_proposes_.emplace(cur_view_, std::move(msg));
  try_vote();
}

void PbftReplica::handle_phase(MsgTag tag, const Bytes& raw) {
  PhaseMsg msg = PhaseMsg::from_bytes(raw);
  if (msg.sender == 0 || msg.sender > cfg_.n) return;
  if (msg.proposal.view < cur_view_) return;
  if (!verify_phase_msg(tag, msg)) return;

  const ValueKey key{msg.proposal.view, value_digest(msg.proposal.value)};
  auto& bucket = (tag == MsgTag::kPrepare ? prepares_ : commits_)[key];
  bucket.emplace(msg.sender, std::move(msg));

  if (tag == MsgTag::kPrepare) {
    try_prepare_quorum();
  } else {
    try_commit_quorum();
  }
}

void PbftReplica::try_prepare_quorum() {
  if (!voted_ || committed_this_view_) return;
  const ValueKey key{cur_view_, value_digest(cur_val_)};
  const auto it = prepares_.find(key);
  if (it == prepares_.end() || it->second.size() < cfg_.quorum()) return;

  prepared_view_ = cur_view_;
  prepared_value_ = cur_val_;
  prepared_cert_.clear();
  for (const auto& [sender, msg] : it->second) {
    if (prepared_cert_.size() == cfg_.quorum()) break;
    prepared_cert_.push_back(std::make_shared<PhaseMsg>(msg));
  }

  PhaseMsg commit;
  commit.proposal = proposal_->proposal;
  commit.sender = cfg_.id;
  commit.sender_sig = cfg_.suite->sign(
      cfg_.secret_key, commit.signing_bytes(MsgTag::kCommit));
  committed_this_view_ = true;
  const Bytes raw = commit.to_bytes();
  host_.broadcast(core::tag_byte(MsgTag::kCommit), raw);
  commits_[key].emplace(cfg_.id, std::move(commit));
  try_commit_quorum();
}

void PbftReplica::try_commit_quorum() {
  if (decided_) return;
  if (prepared_view_ != cur_view_ || !committed_this_view_) return;
  const ValueKey key{cur_view_, value_digest(prepared_value_)};
  const auto it = commits_.find(key);
  if (it == commits_.end() || it->second.size() < cfg_.quorum()) return;
  decided_ = Decision{cur_view_, prepared_value_};
  if (host_.on_decide) host_.on_decide(cur_view_, prepared_value_);
}

void PbftReplica::handle_wish(ReplicaId from, const Bytes& raw) {
  const auto view = WishMsg::verify(from, raw, *cfg_.suite, cfg_.public_keys);
  if (view) synchronizer_->on_wish(from, *view);
}

bool PbftReplica::verify_leader_sig(const SignedProposal& p) const {
  const ReplicaId leader = leader_of(p.view, cfg_.n);
  return cfg_.suite->verify(cfg_.public_keys[leader],
                            SignedProposal::signing_bytes(p.view, p.value),
                            p.leader_sig);
}

bool PbftReplica::verify_phase_msg(MsgTag tag, const PhaseMsg& m) const {
  if (m.sender == 0 || m.sender > cfg_.n) return false;
  if (m.proposal.view == 0) return false;
  if (!verify_leader_sig(m.proposal)) return false;
  return cfg_.suite->verify(cfg_.public_keys[m.sender], m.signing_bytes(tag),
                            m.sender_sig);
}

bool PbftReplica::prepared_cert_valid(const std::vector<PhaseMsgPtr>& cert,
                                      View view, const Bytes& val) const {
  if (view == 0) return false;
  std::set<ReplicaId> senders;
  for (const auto& mp : cert) {
    const PhaseMsg& m = *mp;
    if (m.proposal.view != view || m.proposal.value != val) return false;
    if (!verify_phase_msg(MsgTag::kPrepare, m)) return false;
    senders.insert(m.sender);
  }
  return senders.size() >= cfg_.quorum();
}

bool PbftReplica::valid_new_leader(const NewLeaderMsg& m) const {
  if (m.prepared_view >= m.view) return false;
  if (m.prepared_view == 0) return m.prepared_value.empty();
  return prepared_cert_valid(m.cert, m.prepared_view, m.prepared_value);
}

bool PbftReplica::safe_proposal(const ProposeMsg& m) const {
  const View v = m.proposal.view;
  if (v < 1) return false;
  if (m.sender != leader_of(v, cfg_.n)) return false;
  if (!verify_leader_sig(m.proposal)) return false;
  if (!cfg_.valid(m.proposal.value)) return false;
  if (v == 1) return true;

  std::set<ReplicaId> senders;
  for (const auto& nl : m.justification) {
    if (nl.view != v) return false;
    if (nl.sender == 0 || nl.sender > cfg_.n) return false;
    if (!cfg_.suite->verify(cfg_.public_keys[nl.sender], nl.signing_bytes(),
                            nl.sender_sig)) {
      return false;
    }
    if (!valid_new_leader(nl)) return false;
    senders.insert(nl.sender);
  }
  if (senders.size() < cfg_.quorum()) return false;

  const auto chosen = choose_value(m.justification);
  if (chosen.has_value()) return m.proposal.value == *chosen;
  return true;
}

Bytes PbftReplica::value_digest(const Bytes& value) const {
  return crypto::sha256(ByteSpan(value.data(), value.size()));
}

}  // namespace probft::pbft
