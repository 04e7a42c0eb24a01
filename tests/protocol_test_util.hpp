// Shared helpers for driving protocol replicas directly (no network):
// captures outgoing messages in an outbox and crafts correctly-signed
// protocol messages from arbitrary (including Byzantine) senders.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/messages.hpp"
#include "core/replica.hpp"
#include "crypto/sampler.hpp"
#include "crypto/suite.hpp"
#include "pbft/pbft_replica.hpp"

namespace probft::testutil {

using core::MsgTag;
using core::NewLeaderMsg;
using core::PhaseMsg;
using core::ProposeMsg;
using core::SignedProposal;

struct SentMessage {
  ReplicaId to = 0;  // 0 = broadcast
  std::uint8_t tag = 0;
  Bytes payload;
};

/// A keyed universe of n replicas plus message-crafting helpers.
class TestBed {
 public:
  TestBed(std::uint32_t n, std::uint32_t f, double o = 1.7, double l = 2.0,
          std::uint64_t seed = 1)
      : n_(n), f_(f), o_(o), l_(l), suite_(crypto::make_sim_suite()) {
    keys_.resize(n + 1);
    std::vector<Bytes> key_table(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      keys_[id] = suite_->keygen(mix64(seed, id));
      key_table[id] = keys_[id].public_key;
    }
    public_keys_ = crypto::PublicKeyDir(std::move(key_table));
  }

  [[nodiscard]] std::uint32_t n() const { return n_; }
  [[nodiscard]] const crypto::CryptoSuite& suite() const { return *suite_; }
  [[nodiscard]] const Bytes& secret(ReplicaId id) const {
    return keys_[id].secret_key;
  }
  [[nodiscard]] const crypto::PublicKeyDir& public_keys() const {
    return public_keys_;
  }

  /// Builds a ProBFT replica whose sends land in `outbox` and whose timers
  /// land in `timers` (fire manually with fire_timers()).
  std::unique_ptr<core::Replica> make_replica(
      ReplicaId id, Bytes my_value = to_bytes("own-value"),
      bool fast_verify = true) {
    core::ReplicaConfig rc;
    rc.id = id;
    rc.n = n_;
    rc.f = f_;
    rc.o = o_;
    rc.l = l_;
    rc.fast_verify = fast_verify;
    rc.my_value = std::move(my_value);
    rc.suite = suite_.get();
    rc.secret_key = keys_[id].secret_key;
    rc.public_keys = public_keys_;
    core::ProtocolHost hooks;
    hooks.send = [this](ReplicaId to, std::uint8_t tag, const Bytes& m) {
      outbox.push_back({to, tag, m});
    };
    hooks.broadcast = [this](std::uint8_t tag, const Bytes& m) {
      outbox.push_back({0, tag, m});
    };
    hooks.set_timer = [this](Duration d, std::function<void()> fn) {
      timers.push_back({d, std::move(fn)});
    };
    hooks.on_decide = [this](View v, const Bytes& value) {
      decisions.push_back({v, value});
    };
    sync::SyncConfig sc;
    sc.base_timeout = 100'000;
    return std::make_unique<core::Replica>(std::move(rc), sc, hooks);
  }

  /// Builds a PBFT replica with the same outbox/timers wiring.
  std::unique_ptr<pbft::PbftReplica> make_pbft_replica(
      ReplicaId id, Bytes my_value = to_bytes("own-value")) {
    pbft::PbftConfig rc;
    rc.id = id;
    rc.n = n_;
    rc.f = f_;
    rc.my_value = std::move(my_value);
    rc.suite = suite_.get();
    rc.secret_key = keys_[id].secret_key;
    rc.public_keys = public_keys_;
    core::ProtocolHost hooks;
    hooks.send = [this](ReplicaId to, std::uint8_t tag, const Bytes& m) {
      outbox.push_back({to, tag, m});
    };
    hooks.broadcast = [this](std::uint8_t tag, const Bytes& m) {
      outbox.push_back({0, tag, m});
    };
    hooks.set_timer = [this](Duration d, std::function<void()> fn) {
      timers.push_back({d, std::move(fn)});
    };
    hooks.on_decide = [this](View v, const Bytes& value) {
      decisions.push_back({v, value});
    };
    sync::SyncConfig sc;
    sc.base_timeout = 100'000;
    return std::make_unique<pbft::PbftReplica>(std::move(rc), sc, hooks);
  }

  /// A PBFT-style PhaseMsg: no VRF sample/proof, just the signed tuple.
  [[nodiscard]] PhaseMsg make_plain_phase(MsgTag tag, View v,
                                          const Bytes& value,
                                          ReplicaId sender,
                                          ReplicaId leader) const {
    PhaseMsg m;
    m.proposal = sign_proposal(v, value, leader);
    m.sender = sender;
    m.sender_sig =
        suite_->sign(keys_[sender].secret_key, m.signing_bytes(tag));
    return m;
  }

  // ---- message crafting (correctly signed by arbitrary replicas) ----

  [[nodiscard]] SignedProposal sign_proposal(View v, const Bytes& value,
                                             ReplicaId signer) const {
    SignedProposal p;
    p.view = v;
    p.value = value;
    p.leader_sig = suite_->sign(keys_[signer].secret_key,
                                SignedProposal::signing_bytes(v, value));
    return p;
  }

  [[nodiscard]] ProposeMsg make_propose(
      View v, const Bytes& value, ReplicaId sender,
      std::vector<NewLeaderMsg> justification = {}) const {
    ProposeMsg m;
    m.proposal = sign_proposal(v, value, sender);
    m.justification = std::move(justification);
    m.sender = sender;
    m.sender_sig =
        suite_->sign(keys_[sender].secret_key, m.signing_bytes());
    return m;
  }

  [[nodiscard]] PhaseMsg make_phase(MsgTag tag, View v, const Bytes& value,
                                    ReplicaId sender,
                                    ReplicaId leader) const {
    PhaseMsg m;
    m.proposal = sign_proposal(v, value, leader);
    const char* phase = tag == MsgTag::kPrepare ? "prepare" : "commit";
    const Bytes alpha = crypto::sample_alpha(v, phase);
    auto sampled = crypto::vrf_sample(*suite_, keys_[sender].secret_key,
                                      ByteSpan(alpha.data(), alpha.size()),
                                      n_, sample_size());
    m.sample = std::move(sampled.sample);
    m.vrf_proof = std::move(sampled.proof);
    m.sender = sender;
    m.sender_sig =
        suite_->sign(keys_[sender].secret_key, m.signing_bytes(tag));
    return m;
  }

  [[nodiscard]] NewLeaderMsg make_new_leader(
      View v, ReplicaId sender, View prepared_view = 0,
      Bytes prepared_value = {},
      std::vector<core::PhaseMsgPtr> cert = {}) const {
    NewLeaderMsg m;
    m.view = v;
    m.prepared_view = prepared_view;
    m.prepared_value = std::move(prepared_value);
    m.cert = std::move(cert);
    m.sender = sender;
    m.sender_sig =
        suite_->sign(keys_[sender].secret_key, m.signing_bytes());
    return m;
  }

  /// A prepared certificate for (view, value) addressed to `target`: uses
  /// prepares from senders whose VRF sample includes `target`. Requires the
  /// configuration to yield enough such senders (use s == n in tests).
  /// Entries are shared immutable handles; tests that tamper with one must
  /// clone it first (see clone_cert_entry).
  [[nodiscard]] std::vector<core::PhaseMsgPtr> make_cert(
      View v, const Bytes& value, ReplicaId target, ReplicaId leader) const {
    std::vector<core::PhaseMsgPtr> cert;
    for (ReplicaId sender = 1; sender <= n_ && cert.size() < q(); ++sender) {
      auto m = make_phase(MsgTag::kPrepare, v, value, sender, leader);
      if (std::binary_search(m.sample.begin(), m.sample.end(), target)) {
        cert.push_back(std::make_shared<PhaseMsg>(std::move(m)));
      }
    }
    return cert;
  }

  /// Mutable deep copy of one certificate entry with its digest memo
  /// cleared, for crafting tampered certificates.
  [[nodiscard]] static std::shared_ptr<PhaseMsg> clone_cert_entry(
      const core::PhaseMsgPtr& entry) {
    auto copy = std::make_shared<PhaseMsg>(*entry);
    copy->digest_memo_.clear();
    return copy;
  }

  [[nodiscard]] std::uint32_t q() const {
    return static_cast<std::uint32_t>(
        std::ceil(l_ * std::sqrt(static_cast<double>(n_))));
  }
  [[nodiscard]] std::uint32_t sample_size() const {
    return std::min(
        static_cast<std::uint32_t>(std::ceil(o_ * static_cast<double>(q()))),
        n_);
  }

  /// Delivers every prepare/commit needed for `replica` to decide in view 1
  /// on `value` proposed by `leader`.
  void drive_to_decision(core::Replica& replica, View v, const Bytes& value,
                         ReplicaId leader) {
    replica.on_message(leader, core::tag_byte(MsgTag::kPropose),
                       make_propose(v, value, leader).to_bytes());
    for (ReplicaId sender = 1; sender <= n_; ++sender) {
      if (sender == replica.config().id) continue;
      replica.on_message(sender, core::tag_byte(MsgTag::kPrepare),
                         make_phase(MsgTag::kPrepare, v, value, sender,
                                    leader)
                             .to_bytes());
    }
    for (ReplicaId sender = 1; sender <= n_; ++sender) {
      if (sender == replica.config().id) continue;
      replica.on_message(sender, core::tag_byte(MsgTag::kCommit),
                         make_phase(MsgTag::kCommit, v, value, sender,
                                    leader)
                             .to_bytes());
    }
  }

  struct Timer {
    Duration delay;
    std::function<void()> fn;
  };
  struct DecisionRec {
    View view;
    Bytes value;
  };

  std::vector<SentMessage> outbox;
  std::vector<Timer> timers;
  std::vector<DecisionRec> decisions;

 private:
  std::uint32_t n_, f_;
  double o_, l_;
  std::unique_ptr<crypto::CryptoSuite> suite_;
  std::vector<crypto::KeyPair> keys_;
  crypto::PublicKeyDir public_keys_;
};

}  // namespace probft::testutil
