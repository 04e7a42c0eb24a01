// ProBFT wire messages (paper Algorithm 1).
//
// Message kinds:
//   Propose   — ⟨Propose, ⟨v,x⟩_leader, M⟩_leader, where M is the
//               justification set of NewLeader messages (empty in view 1).
//   Prepare   — ⟨Prepare, ⟨v,x⟩_leader, S_p, P_p⟩_i  (multicast to S_p)
//   Commit    — ⟨Commit,  ⟨v,x⟩_leader, S_c, P_c⟩_i  (multicast to S_c)
//   NewLeader — ⟨NewLeader, v, preparedView, preparedVal, cert⟩_i
//   Wish      — synchronizer view wishes.
//
// Every message is signed by its sender over a domain-separated encoding of
// its content and of the signer's instance tag: an SMR slot's instance
// names its (group, slot), so a message signed for one slot does not
// verify in another. The empty tag (single-shot runs) adds no byte. The
// proposal tuple ⟨v,x⟩ additionally carries the leader's
// signature so that any replica relaying a Prepare/Commit transports
// transferable evidence of what the leader proposed (this is what makes the
// equivocation check of Alg. 1 lines 23-25 work on relayed messages).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/suite.hpp"
#include "net/tags.hpp"

namespace probft::core {

enum class MsgTag : std::uint8_t {
  kPropose = net::tags::kPropose,
  kPrepare = net::tags::kPrepare,
  kCommit = net::tags::kCommit,
  kNewLeader = net::tags::kNewLeader,
  kWish = net::tags::kWish,
};

/// The leader-signed proposal tuple ⟨v, x⟩_leader.
struct SignedProposal {
  View view = 0;
  Bytes value;
  Bytes leader_sig;

  void encode(Writer& w) const;
  static SignedProposal decode(Reader& r);
  /// The byte string the leader signs.
  [[nodiscard]] static Bytes signing_bytes(View view, ByteSpan value,
                                           ByteSpan instance = {});

  friend bool operator==(const SignedProposal&,
                         const SignedProposal&) = default;
};

/// Shared shape of Prepare and Commit messages; `phase` disambiguates the
/// VRF seed ("prepare" vs "commit") and the signature domain.
struct PhaseMsg {
  SignedProposal proposal;
  std::vector<ReplicaId> sample;  // S: VRF-selected recipients
  Bytes vrf_proof;                // P
  ReplicaId sender = 0;
  Bytes sender_sig;
  /// Lazily-computed SHA-256 of the full wire encoding (signature
  /// included); copies carry it along. The replica's verification cache
  /// keys on it, so a multicast Prepare referenced by many overlapping
  /// certificates is hashed once, not once per reference. Not part of the
  /// wire format; treat as content_digest()'s private memo. CAUTION: code
  /// that mutates any field after the digest was computed (tests crafting
  /// adversarial messages) must clear the memo, or the stale digest will
  /// alias the original message's cached verdict. Wire-decoded messages
  /// are never mutated, so the protocol paths cannot go stale.
  mutable Bytes digest_memo_;

  void encode(Writer& w) const;
  static PhaseMsg decode(Reader& r);
  [[nodiscard]] Bytes signing_bytes(MsgTag tag, ByteSpan instance = {}) const;
  [[nodiscard]] Bytes to_bytes() const;
  static PhaseMsg from_bytes(ByteSpan data);
  [[nodiscard]] const Bytes& content_digest() const;
};

/// Shared immutable handle to a certificate member. Certificates inside a
/// justification overlap heavily (one multicast Prepare lands in every
/// sample member's certificate), so certs hold shared pointers: decoding a
/// Propose materializes each distinct PhaseMsg once and the per-cert
/// entries are pointer copies, not O(n·√n) deep copies. Treat the pointee
/// as immutable — tests that want to tamper with a member must clone it
/// (std::make_shared<PhaseMsg>(*ptr)) and swap the pointer.
using PhaseMsgPtr = std::shared_ptr<const PhaseMsg>;

/// ⟨NewLeader, v, preparedView, preparedVal, cert⟩_sender. A prepared
/// certificate is the probabilistic quorum of Prepare messages this sender
/// collected (empty when it never prepared: preparedView == 0).
struct NewLeaderMsg {
  View view = 0;           // the view being entered
  View prepared_view = 0;  // 0 encodes "never prepared" (⊥)
  Bytes prepared_value;    // empty when prepared_view == 0
  std::vector<PhaseMsgPtr> cert;
  ReplicaId sender = 0;
  Bytes sender_sig;
  /// Same contract as PhaseMsg::digest_memo_.
  mutable Bytes digest_memo_;

  void encode(Writer& w) const;
  static NewLeaderMsg decode(Reader& r);
  [[nodiscard]] Bytes signing_bytes(ByteSpan instance = {}) const;
  [[nodiscard]] Bytes to_bytes() const;
  static NewLeaderMsg from_bytes(ByteSpan data);
  [[nodiscard]] const Bytes& content_digest() const;
};

/// ⟨Propose, ⟨v,x⟩_leader, M⟩_leader.
///
/// Wire format note: the justification's prepared certificates overlap
/// heavily (one multicast Prepare appears in every sample member's cert),
/// so encode()/decode() pool the distinct PhaseMsgs once and store each
/// cert as u32 back-references into the pool. signing_bytes() is defined
/// over the flat logical content and is unaffected by the pooling.
struct ProposeMsg {
  SignedProposal proposal;
  std::vector<NewLeaderMsg> justification;  // M (empty in view 1)
  ReplicaId sender = 0;
  Bytes sender_sig;

  void encode(Writer& w) const;
  static ProposeMsg decode(Reader& r);
  [[nodiscard]] Bytes signing_bytes(ByteSpan instance = {}) const;
  [[nodiscard]] Bytes to_bytes() const;
  static ProposeMsg from_bytes(ByteSpan data);
};

/// Synchronizer wish.
struct WishMsg {
  View view = 0;
  ReplicaId sender = 0;
  Bytes sender_sig;

  void encode(Writer& w) const;
  static WishMsg decode(Reader& r);
  [[nodiscard]] Bytes signing_bytes(ByteSpan instance = {}) const;
  [[nodiscard]] Bytes to_bytes() const;
  static WishMsg from_bytes(ByteSpan data);

  /// The wire bytes of `sender`'s Wish for `view`, signed with its key.
  /// An SMR group's Wish names the group in `instance`.
  static Bytes sign(View view, ReplicaId sender,
                    const crypto::CryptoSuite& suite, const Bytes& secret_key,
                    ByteSpan instance = {});
  /// The view a Wish frame asks for, when replica `from` (of `keys`)
  /// signed it itself for `instance`; nullopt otherwise. Throws
  /// CodecError.
  static std::optional<View> verify(ReplicaId from, ByteSpan raw,
                                    const crypto::CryptoSuite& suite,
                                    const crypto::PublicKeyDir& keys,
                                    ByteSpan instance = {});
};

}  // namespace probft::core
