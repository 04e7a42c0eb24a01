// Single-shot PBFT baseline (paper §2.3, following Bravo et al. [6]).
//
// Identical three-phase structure to ProBFT but with *deterministic*
// quorums of ⌈(n+f+1)/2⌉ and all-to-all Prepare/Commit broadcasts — this is
// the protocol ProBFT is benchmarked against in Figures 1 and 5. Sharing
// the network/synchronizer substrate keeps the comparison apples-to-apples.
//
// Message shapes reuse the ProBFT encodings with empty VRF fields (a
// PhaseMsg whose sample/proof are empty means "broadcast quorum message").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/messages.hpp"
#include "core/protocol_host.hpp"
#include "core/replica.hpp"
#include "crypto/suite.hpp"
#include "sync/synchronizer.hpp"

namespace probft::pbft {

using core::INode;
using core::MsgTag;
using core::NewLeaderMsg;
using core::PhaseMsg;
using core::PhaseMsgPtr;
using core::ProposeMsg;
using core::SignedProposal;
using core::WishMsg;

struct PbftConfig {
  ReplicaId id = 0;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  Bytes my_value;
  std::function<bool(const Bytes&)> valid;

  const crypto::CryptoSuite* suite = nullptr;
  Bytes secret_key;
  crypto::PublicKeyDir public_keys;

  /// Deterministic quorum ⌈(n+f+1)/2⌉ used in every phase.
  [[nodiscard]] std::uint32_t quorum() const { return (n + f + 2) / 2; }
};

class PbftReplica : public INode {
 public:
  PbftReplica(PbftConfig config, sync::SyncConfig sync_config,
              core::ProtocolHost host);

  void start() override;
  void on_message(ReplicaId from, std::uint8_t tag,
                  const Bytes& payload) override;

  [[nodiscard]] bool decided() const { return decided_.has_value(); }
  [[nodiscard]] const Bytes& decided_value() const { return decided_->value; }
  [[nodiscard]] View decided_view() const { return decided_->view; }
  [[nodiscard]] View current_view() const { return cur_view_; }
  [[nodiscard]] View prepared_view() const { return prepared_view_; }

 private:
  struct Decision {
    View view;
    Bytes value;
  };
  using ValueKey = std::pair<View, Bytes>;

  void enter_view(View v);
  void handle_propose(const Bytes& raw);
  void handle_phase(MsgTag tag, const Bytes& raw);
  void handle_new_leader(const Bytes& raw);
  void handle_wish(ReplicaId from, const Bytes& raw);

  void try_vote();
  void try_lead();
  void try_prepare_quorum();
  void try_commit_quorum();

  [[nodiscard]] bool safe_proposal(const ProposeMsg& m) const;
  [[nodiscard]] bool valid_new_leader(const NewLeaderMsg& m) const;
  [[nodiscard]] bool prepared_cert_valid(const std::vector<PhaseMsgPtr>& cert,
                                         View view, const Bytes& val) const;
  [[nodiscard]] bool verify_leader_sig(const SignedProposal& p) const;
  [[nodiscard]] bool verify_phase_msg(MsgTag tag, const PhaseMsg& m) const;
  [[nodiscard]] Bytes value_digest(const Bytes& value) const;
  void send_new_leader();

  PbftConfig cfg_;
  core::ProtocolHost host_;
  std::unique_ptr<sync::Synchronizer> synchronizer_;

  View cur_view_ = 0;
  Bytes cur_val_;
  bool voted_ = false;
  std::optional<ProposeMsg> proposal_;
  bool proposed_this_view_ = false;
  bool committed_this_view_ = false;

  View prepared_view_ = 0;
  Bytes prepared_value_;
  std::vector<PhaseMsgPtr> prepared_cert_;

  std::optional<Decision> decided_;

  std::map<ValueKey, std::map<ReplicaId, PhaseMsg>> prepares_;
  std::map<ValueKey, std::map<ReplicaId, PhaseMsg>> commits_;
  std::map<View, std::map<ReplicaId, NewLeaderMsg>> new_leader_msgs_;
  std::map<View, ProposeMsg> pending_proposes_;
};

}  // namespace probft::pbft
