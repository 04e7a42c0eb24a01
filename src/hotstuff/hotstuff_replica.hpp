// Single-shot (Basic) HotStuff baseline — the second comparison protocol of
// Figure 1. Leader-to-all-to-leader pattern with quorum certificates:
//
//   NewView -> Propose -> PrepareVote -> PrepareQC -> PreCommitVote ->
//   PreCommitQC (lock) -> CommitVote -> CommitQC (decide)
//
// Message complexity is linear (O(n) per phase) but the protocol needs more
// communication steps than PBFT/ProBFT (Figure 1a). Deterministic quorums
// of ⌈(n+f+1)/2⌉ and the standard locking rule (safeNode) provide safety;
// the shared synchronizer provides view synchronization.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "core/messages.hpp"
#include "core/protocol_host.hpp"
#include "core/replica.hpp"
#include "crypto/suite.hpp"
#include "net/tags.hpp"
#include "sync/synchronizer.hpp"

namespace probft::hotstuff {

enum class HsTag : std::uint8_t {
  kNewView = net::tags::kHsNewView,
  kProposal = net::tags::kHsProposal,
  kVote = net::tags::kHsVote,
  kQc = net::tags::kHsQc,
  kWish = net::tags::kHsWish,
};

enum class HsPhase : std::uint8_t {
  kPrepare = 1,
  kPreCommit = 2,
  kCommit = 3,
};

/// Quorum certificate: quorum-many signatures over (phase, view, value).
/// view == 0 encodes the null QC.
struct QuorumCert {
  HsPhase phase = HsPhase::kPrepare;
  View view = 0;
  Bytes value;
  std::vector<ReplicaId> signers;
  std::vector<Bytes> sigs;

  [[nodiscard]] bool is_null() const { return view == 0; }
  void encode(Writer& w) const;
  static QuorumCert decode(Reader& r);
  /// The byte string each signer signed (shared with HsVote).
  [[nodiscard]] static Bytes vote_signing_bytes(HsPhase phase, View view,
                                                const Bytes& value);
};

struct HsNewView {
  View view = 0;          // view being entered
  QuorumCert prepare_qc;  // highest prepare QC known to the sender
  ReplicaId sender = 0;
  Bytes sender_sig;

  void encode(Writer& w) const;
  static HsNewView decode(Reader& r);
  [[nodiscard]] Bytes signing_bytes() const;
  [[nodiscard]] Bytes to_bytes() const;
  static HsNewView from_bytes(ByteSpan data);
};

struct HsProposal {
  View view = 0;
  Bytes value;
  QuorumCert high_qc;  // justifies the value after a view change
  ReplicaId sender = 0;
  Bytes sender_sig;

  void encode(Writer& w) const;
  static HsProposal decode(Reader& r);
  [[nodiscard]] Bytes signing_bytes() const;
  [[nodiscard]] Bytes to_bytes() const;
  static HsProposal from_bytes(ByteSpan data);
};

struct HsVote {
  HsPhase phase = HsPhase::kPrepare;
  View view = 0;
  Bytes value;
  ReplicaId sender = 0;
  Bytes sender_sig;  // over QuorumCert::vote_signing_bytes

  void encode(Writer& w) const;
  static HsVote decode(Reader& r);
  [[nodiscard]] Bytes to_bytes() const;
  static HsVote from_bytes(ByteSpan data);
};

struct HsQcMsg {
  QuorumCert qc;
  ReplicaId sender = 0;
  Bytes sender_sig;

  void encode(Writer& w) const;
  static HsQcMsg decode(Reader& r);
  [[nodiscard]] Bytes signing_bytes() const;
  [[nodiscard]] Bytes to_bytes() const;
  static HsQcMsg from_bytes(ByteSpan data);
};

struct HotStuffConfig {
  ReplicaId id = 0;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  Bytes my_value;
  std::function<bool(const Bytes&)> valid;

  const crypto::CryptoSuite* suite = nullptr;
  Bytes secret_key;
  crypto::PublicKeyDir public_keys;

  [[nodiscard]] std::uint32_t quorum() const { return (n + f + 2) / 2; }
};

class HotStuffReplica : public core::INode {
 public:
  HotStuffReplica(HotStuffConfig config, sync::SyncConfig sync_config,
                  core::ProtocolHost host);

  void start() override;
  void on_message(ReplicaId from, std::uint8_t tag,
                  const Bytes& payload) override;

  [[nodiscard]] bool decided() const { return decided_.has_value(); }
  [[nodiscard]] const Bytes& decided_value() const { return decided_->value; }
  [[nodiscard]] View decided_view() const { return decided_->view; }
  [[nodiscard]] View current_view() const { return cur_view_; }
  [[nodiscard]] const QuorumCert& locked_qc() const { return locked_qc_; }

 private:
  struct Decision {
    View view;
    Bytes value;
  };

  void enter_view(View v);
  void handle_new_view(const Bytes& raw);
  void handle_proposal(const Bytes& raw);
  void handle_vote(const Bytes& raw);
  void handle_qc(const Bytes& raw);
  void handle_wish(ReplicaId from, const Bytes& raw);

  void try_lead();
  void leader_check_votes(HsPhase phase);
  void send_vote(HsPhase phase, const Bytes& value);
  void broadcast_qc(QuorumCert qc);

  [[nodiscard]] bool verify_qc(const QuorumCert& qc) const;
  [[nodiscard]] bool safe_node(const HsProposal& p) const;

  HotStuffConfig cfg_;
  core::ProtocolHost host_;
  std::unique_ptr<sync::Synchronizer> synchronizer_;

  View cur_view_ = 0;
  Bytes cur_val_;
  bool voted_prepare_ = false;
  bool proposed_this_view_ = false;
  QuorumCert prepare_qc_;  // highest known prepare QC
  QuorumCert locked_qc_;   // precommit QC lock
  std::optional<Decision> decided_;

  // Leader-side collections for the current view.
  std::map<ReplicaId, HsNewView> new_views_;
  std::map<HsPhase, std::map<ReplicaId, HsVote>> votes_;
  std::set<HsPhase> qc_sent_;
  std::set<HsPhase> qc_applied_;  // vote-once guard per QC phase
};

}  // namespace probft::hotstuff
