// ProBFT replica (paper §3.2, Algorithm 1).
//
// The replica is a pure state machine: it consumes (sender, tag, bytes) and
// emits sends/broadcasts/timers through an injected core::ProtocolHost, so
// unit tests can drive it directly while the simulation harness and the TCP
// backend wire it to their respective networks. One instance solves one
// single-shot consensus.
//
// Protocol recap (normal case):
//   1. Leader broadcasts ⟨Propose, ⟨v,x⟩, M⟩ (M = NewLeader justification,
//      empty in view 1).
//   2. On a safe proposal, a replica votes: it draws its VRF prepare sample
//      S_p (seed v‖"prepare", size s = o·q) and multicasts
//      ⟨Prepare, ⟨v,x⟩, S_p, P_p⟩.
//   3. On a probabilistic quorum of q = l·√n valid matching Prepares (each
//      listing this replica in its sample), the replica *prepares* x, saves
//      the certificate, draws S_c (seed v‖"commit") and multicasts Commit.
//   4. On a probabilistic quorum of q valid matching Commits it decides.
//
// Equivocation defense (lines 23-25): any message carrying a leader-signed
// tuple ⟨v,x'⟩ with x' different from the value this replica voted for in v
// blocks the view and gossips both conflicting leader-signed tuples.
//
// View change: on entering v+1 the replica sends ⟨NewLeader⟩ with its
// latest prepared value+certificate to the new leader, which collects a
// deterministic quorum ⌈(n+f+1)/2⌉ and re-proposes the value prepared in
// the highest view by the most replicas (mode); followers re-check that
// computation via safeProposal.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/messages.hpp"
#include "core/protocol_host.hpp"
#include "core/verdict_cache.hpp"
#include "crypto/sampler.hpp"
#include "crypto/suite.hpp"
#include "sync/synchronizer.hpp"

namespace probft::core {

/// Minimal node interface shared by honest and Byzantine implementations.
class INode {
 public:
  virtual ~INode() = default;
  virtual void start() = 0;
  virtual void on_message(ReplicaId from, std::uint8_t tag,
                          const Bytes& payload) = 0;
};

struct ReplicaConfig {
  ReplicaId id = 0;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  double o = 1.7;  // sample size factor: s = ceil(o * q)
  double l = 2.0;  // quorum size factor: q = ceil(l * sqrt(n))
  /// Names this instance in every signing string (see core/messages.hpp):
  /// an SMR slot's is its (group, slot), so a message signed for one slot
  /// cannot be replayed into another. Every replica of one instance must
  /// agree on it. Empty (single-shot runs): the signed bytes are as if
  /// there were no tag.
  Bytes instance;
  Bytes my_value;  // myValue(): this replica's own proposal
  /// Application-level valid() predicate; default accepts non-empty values.
  std::function<bool(const Bytes&)> valid;
  /// Verification fast path: memoize signature/VRF verdicts by content
  /// digest and resolve justification certificates through the suite's
  /// batch verifier. Semantically transparent (verdicts are content-
  /// deterministic); disable to get the naive re-verify-everything path,
  /// e.g. for fast-vs-slow determinism checks and benches.
  bool fast_verify = true;
  /// Optional VRF sample memo shared by every instance of one SMR replica
  /// (non-owning; must outlive the replica). With fast_verify on, own
  /// samples are proved and peer sample proofs verified through it, once
  /// per distinct input across instances. It must hold this replica's
  /// suite and key pair. Null: prove and verify every time.
  crypto::SampleMemo* sample_memo = nullptr;

  const crypto::CryptoSuite* suite = nullptr;
  Bytes secret_key;
  crypto::PublicKeyDir public_keys;  // 1-based; [0] unused; shared storage

  [[nodiscard]] std::uint32_t q() const;           // probabilistic quorum
  [[nodiscard]] std::uint32_t sample_size() const; // s = ceil(o q), <= n
  [[nodiscard]] std::uint32_t det_quorum() const;  // ceil((n+f+1)/2)
};

class Replica : public INode {
 public:
  /// Without `sync_config` the owner drives the views with move_to (an
  /// SMR slot, paced by its group's synchronizer): the replica then sets
  /// no timers and ignores Wish messages.
  Replica(ReplicaConfig config, std::optional<sync::SyncConfig> sync_config,
          ProtocolHost host);

  /// Starts the synchronizer (owner-driven replicas start with move_to).
  void start() override;
  /// Enters view `v` if it is past the current one (past 1: NewLeader).
  void move_to(View v);
  void on_message(ReplicaId from, std::uint8_t tag,
                  const Bytes& payload) override;

  // ---- inspection (tests / harness) ----
  [[nodiscard]] bool decided() const { return decided_.has_value(); }
  [[nodiscard]] const Bytes& decided_value() const { return decided_->value; }
  [[nodiscard]] View decided_view() const { return decided_->view; }
  [[nodiscard]] View current_view() const { return cur_view_; }
  [[nodiscard]] bool view_blocked() const { return block_view_; }
  [[nodiscard]] bool voted() const { return voted_; }
  [[nodiscard]] View prepared_view() const { return prepared_view_; }
  [[nodiscard]] const Bytes& prepared_value() const { return prepared_value_; }
  [[nodiscard]] const ReplicaConfig& config() const { return cfg_; }

  // ---- predicates (exposed for tests; paper §3.2) ----
  [[nodiscard]] bool safe_proposal(const ProposeMsg& m) const;
  [[nodiscard]] bool valid_new_leader(const NewLeaderMsg& m) const;
  /// prepared(cert, view, val, j): cert is a valid prepared certificate
  /// for (view, val) addressed to replica j.
  [[nodiscard]] bool prepared_cert_valid(const std::vector<PhaseMsgPtr>& cert,
                                         View view, const Bytes& val,
                                         ReplicaId j) const;

 private:
  struct Decision {
    View view;
    Bytes value;
  };
  using ValueKey = std::pair<View, Bytes>;  // (view, value digest)

  void enter_view(View v);
  void handle_propose(const Bytes& raw);
  void handle_phase(MsgTag tag, const Bytes& raw);
  void handle_new_leader(const Bytes& raw);
  void handle_wish(ReplicaId from, const Bytes& raw);

  void try_vote();            // lines 13-16 on the buffered proposal
  void try_lead();            // lines 6-12 once a det. quorum arrived
  void try_prepare_quorum();  // lines 17-20
  void try_commit_quorum();   // lines 21-22
  void decide(const Bytes& value);

  /// Lines 23-25: returns true (and blocks/gossips) on leader equivocation.
  bool check_equivocation(const SignedProposal& p, std::uint8_t tag,
                          const Bytes& raw);

  [[nodiscard]] bool verify_leader_sig(const SignedProposal& p) const;
  /// The Propose sender signature, memoized under 'R' when fast_verify is
  /// on (the leader vouches for its own Propose there).
  [[nodiscard]] bool propose_sender_sig_ok(const ProposeMsg& m) const;
  [[nodiscard]] bool verify_phase_msg(MsgTag tag, const PhaseMsg& m,
                                      ReplicaId addressee) const;
  /// The addressee-independent expensive part of verify_phase_msg (leader
  /// signature + sender signature + VRF sample proof), memoized under the
  /// message's content digest.
  [[nodiscard]] bool phase_full_ok(MsgTag tag, const PhaseMsg& m) const;
  [[nodiscard]] bool phase_vrf_ok(MsgTag tag, const PhaseMsg& m) const;
  /// VRF_prove(K, cur_view_‖phase): this replica's sample for `phase`.
  [[nodiscard]] crypto::SampleResult draw_sample(const char* phase) const;
  [[nodiscard]] bool new_leader_sig_ok(const NewLeaderMsg& m) const;
  /// Batch-resolves every signature check referenced by `msgs` that is not
  /// already cached (one suite verify_batch call), then caches per-item
  /// verdicts so the subsequent per-message walk is all cache hits.
  void prefetch_new_leaders(const std::vector<const NewLeaderMsg*>& msgs,
                            bool include_sender_sigs) const;
  [[nodiscard]] std::optional<bool> cache_lookup(const Bytes& key) const;
  void cache_store(Bytes key, bool ok) const;
  /// With fast_verify on, caches a valid verdict under key() for a message
  /// this replica just signed, so its own copy costs a lookup when it comes
  /// back. The key covers the signature: a variant signed by anyone else
  /// misses and is verified as usual.
  template <typename KeyFn>
  void vouch_for(KeyFn&& key) const;
  [[nodiscard]] Bytes value_digest(const Bytes& value) const;
  void send_new_leader();
  /// Signs and broadcasts ⟨Propose, ⟨cur_view_, value⟩, justification⟩.
  void propose(const Bytes& value, std::vector<NewLeaderMsg> justification);
  /// Draws this view's sample for `tag` and multicasts the signed
  /// Prepare/Commit for the accepted proposal to it.
  void send_phase(MsgTag tag);

  ReplicaConfig cfg_;
  ProtocolHost host_;
  std::unique_ptr<sync::Synchronizer> synchronizer_;

  // Algorithm 1 per-view state.
  View cur_view_ = 0;
  Bytes cur_val_;
  bool voted_ = false;
  bool block_view_ = false;
  std::optional<ProposeMsg> proposal_;  // the accepted Propose
  bool proposed_this_view_ = false;     // leader: sent Propose already
  bool committed_this_view_ = false;    // sent Commit already

  // Cross-view prepared state (survives view changes).
  View prepared_view_ = 0;
  Bytes prepared_value_;
  std::vector<PhaseMsgPtr> prepared_cert_;

  std::optional<Decision> decided_;

  // Collections. Phase messages are buffered even before the replica can
  // process them (they may arrive ahead of the Propose).
  std::map<ValueKey, std::map<ReplicaId, PhaseMsg>> prepares_;
  std::map<ValueKey, std::map<ReplicaId, PhaseMsg>> commits_;
  std::map<View, std::map<ReplicaId, NewLeaderMsg>> new_leader_msgs_;
  std::map<View, ProposeMsg> pending_proposes_;

  // Content-addressed verification cache (the O(n²√n) justification wall:
  // one multicast Prepare appears in ~q overlapping certificates, so the
  // same signature/VRF proof used to be re-verified once per referencing
  // NewLeader message). Keys and capacity live in core/verdict_cache.hpp.
  mutable VerdictCache cache_;
};

/// Wire helper: MsgTag as the network tag byte.
[[nodiscard]] constexpr std::uint8_t tag_byte(MsgTag tag) {
  return static_cast<std::uint8_t>(tag);
}

}  // namespace probft::core
