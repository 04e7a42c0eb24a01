// Direct-drive unit tests for the HotStuff baseline: QC validation, the
// safeNode rule, and vote handling under adversarial input.
#include <gtest/gtest.h>

#include <memory>

#include "hotstuff/hotstuff_replica.hpp"
#include "sim/node_factory.hpp"

namespace probft::hotstuff {
namespace {

struct Bed {
  std::unique_ptr<crypto::CryptoSuite> suite = crypto::make_sim_suite();
  std::uint32_t n = 7, f = 2;  // quorum = ceil((7+2+1)/2) = 5
  std::vector<crypto::KeyPair> keys;
  crypto::PublicKeyDir public_keys;
  std::vector<std::pair<std::uint8_t, Bytes>> outbox;  // (tag, payload)

  Bed() {
    sim::FleetKeys derived = sim::derive_keys(*suite, n, 7);
    keys = std::move(derived.pairs);
    public_keys = std::move(derived.public_keys);
  }

  std::unique_ptr<HotStuffReplica> make(ReplicaId id) {
    HotStuffConfig cfg;
    cfg.id = id;
    cfg.n = n;
    cfg.f = f;
    cfg.my_value = to_bytes("hs-value");
    cfg.suite = suite.get();
    cfg.secret_key = keys[id].secret_key;
    cfg.public_keys = public_keys;
    core::ProtocolHost hooks;
    hooks.send = [this](ReplicaId, std::uint8_t tag, const Bytes& m) {
      outbox.emplace_back(tag, m);
    };
    hooks.broadcast = [this](std::uint8_t tag, const Bytes& m) {
      outbox.emplace_back(tag, m);
    };
    hooks.set_timer = [](Duration, std::function<void()>) {};
    sync::SyncConfig sc;
    return std::make_unique<HotStuffReplica>(std::move(cfg), sc, hooks);
  }

  HsProposal make_proposal(View v, const Bytes& value, ReplicaId sender,
                           QuorumCert high_qc = {}) {
    HsProposal p;
    p.view = v;
    p.value = value;
    p.high_qc = std::move(high_qc);
    p.sender = sender;
    p.sender_sig = suite->sign(keys[sender].secret_key, p.signing_bytes());
    return p;
  }

  HsVote make_vote(HsPhase phase, View v, const Bytes& value,
                   ReplicaId sender) {
    HsVote vote;
    vote.phase = phase;
    vote.view = v;
    vote.value = value;
    vote.sender = sender;
    vote.sender_sig = suite->sign(
        keys[sender].secret_key,
        QuorumCert::vote_signing_bytes(phase, v, value));
    return vote;
  }

  QuorumCert make_qc(HsPhase phase, View v, const Bytes& value,
                     std::uint32_t signers) {
    QuorumCert qc;
    qc.phase = phase;
    qc.view = v;
    qc.value = value;
    for (ReplicaId s = 1; s <= signers; ++s) {
      qc.signers.push_back(s);
      qc.sigs.push_back(suite->sign(
          keys[s].secret_key,
          QuorumCert::vote_signing_bytes(phase, v, value)));
    }
    return qc;
  }

  HsQcMsg wrap_qc(QuorumCert qc, ReplicaId sender) {
    HsQcMsg msg;
    msg.qc = std::move(qc);
    msg.sender = sender;
    msg.sender_sig = suite->sign(keys[sender].secret_key,
                                 msg.signing_bytes());
    return msg;
  }
};

TEST(HotStuffUnit, LeaderProposesOnStartOfViewOne) {
  Bed bed;
  auto leader = bed.make(1);
  leader->start();
  bool proposed = false;
  for (const auto& [tag, payload] : bed.outbox) {
    if (tag == static_cast<std::uint8_t>(HsTag::kProposal)) proposed = true;
  }
  EXPECT_TRUE(proposed);
}

TEST(HotStuffUnit, FollowerVotesOnValidProposal) {
  Bed bed;
  auto follower = bed.make(2);
  follower->start();
  bed.outbox.clear();
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kProposal),
                       bed.make_proposal(1, to_bytes("v"), 1).to_bytes());
  bool voted = false;
  for (const auto& [tag, payload] : bed.outbox) {
    if (tag == static_cast<std::uint8_t>(HsTag::kVote)) {
      const auto vote = HsVote::from_bytes(payload);
      EXPECT_EQ(vote.phase, HsPhase::kPrepare);
      EXPECT_EQ(vote.value, to_bytes("v"));
      voted = true;
    }
  }
  EXPECT_TRUE(voted);
}

TEST(HotStuffUnit, FollowerRejectsNonLeaderProposal) {
  Bed bed;
  auto follower = bed.make(2);
  follower->start();
  bed.outbox.clear();
  follower->on_message(3, static_cast<std::uint8_t>(HsTag::kProposal),
                       bed.make_proposal(1, to_bytes("v"), 3).to_bytes());
  EXPECT_TRUE(bed.outbox.empty());
}

TEST(HotStuffUnit, QcWithTooFewSignersRejected) {
  Bed bed;
  auto follower = bed.make(2);
  follower->start();
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kProposal),
                       bed.make_proposal(1, to_bytes("v"), 1).to_bytes());
  bed.outbox.clear();
  const auto qc = bed.make_qc(HsPhase::kPrepare, 1, to_bytes("v"), 4);  // < 5
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kQc),
                       bed.wrap_qc(qc, 1).to_bytes());
  EXPECT_TRUE(bed.outbox.empty());  // no pre-commit vote
}

TEST(HotStuffUnit, QcWithDuplicateSignersRejected) {
  Bed bed;
  auto follower = bed.make(2);
  follower->start();
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kProposal),
                       bed.make_proposal(1, to_bytes("v"), 1).to_bytes());
  bed.outbox.clear();
  auto qc = bed.make_qc(HsPhase::kPrepare, 1, to_bytes("v"), 5);
  // Replace all signers with replica 1 (signatures stay valid per-entry).
  const auto sig1 = qc.sigs[0];
  for (std::size_t i = 0; i < qc.signers.size(); ++i) {
    qc.signers[i] = 1;
    qc.sigs[i] = sig1;
  }
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kQc),
                       bed.wrap_qc(qc, 1).to_bytes());
  EXPECT_TRUE(bed.outbox.empty());
}

TEST(HotStuffUnit, QcWithForgedSignatureRejected) {
  Bed bed;
  auto follower = bed.make(2);
  follower->start();
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kProposal),
                       bed.make_proposal(1, to_bytes("v"), 1).to_bytes());
  bed.outbox.clear();
  auto qc = bed.make_qc(HsPhase::kPrepare, 1, to_bytes("v"), 5);
  qc.sigs[2][0] ^= 1;
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kQc),
                       bed.wrap_qc(qc, 1).to_bytes());
  EXPECT_TRUE(bed.outbox.empty());
}

TEST(HotStuffUnit, FullPhaseCascadeDecides) {
  Bed bed;
  auto follower = bed.make(2);
  follower->start();
  const Bytes value = to_bytes("v");
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kProposal),
                       bed.make_proposal(1, value, 1).to_bytes());
  for (HsPhase phase :
       {HsPhase::kPrepare, HsPhase::kPreCommit, HsPhase::kCommit}) {
    const auto qc = bed.make_qc(phase, 1, value, 5);
    follower->on_message(1, static_cast<std::uint8_t>(HsTag::kQc),
                         bed.wrap_qc(qc, 1).to_bytes());
  }
  ASSERT_TRUE(follower->decided());
  EXPECT_EQ(follower->decided_value(), value);
  EXPECT_FALSE(follower->locked_qc().is_null());
  EXPECT_EQ(follower->locked_qc().phase, HsPhase::kPreCommit);
}

TEST(HotStuffUnit, LockedReplicaRejectsConflictingLowProposal) {
  Bed bed;
  auto follower = bed.make(2);
  follower->start();
  const Bytes value = to_bytes("locked");
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kProposal),
                       bed.make_proposal(1, value, 1).to_bytes());
  follower->on_message(
      1, static_cast<std::uint8_t>(HsTag::kQc),
      bed.wrap_qc(bed.make_qc(HsPhase::kPrepare, 1, value, 5), 1).to_bytes());
  follower->on_message(
      1, static_cast<std::uint8_t>(HsTag::kQc),
      bed.wrap_qc(bed.make_qc(HsPhase::kPreCommit, 1, value, 5), 1)
          .to_bytes());
  ASSERT_FALSE(follower->locked_qc().is_null());
  // Manually move to view 2 is not possible without wishes; instead verify
  // the safeNode logic indirectly: a view-1 proposal for another value is
  // already rejected because voted_prepare_ is set; the lock survives.
  EXPECT_EQ(follower->locked_qc().value, value);
}

TEST(HotStuffUnit, VotesForWrongValueDoNotFormQc) {
  Bed bed;
  auto leader = bed.make(1);
  leader->start();  // proposes "hs-value"
  bed.outbox.clear();
  // 5 votes for a DIFFERENT value must not produce any QC broadcast.
  for (ReplicaId s = 2; s <= 6; ++s) {
    leader->on_message(
        s, static_cast<std::uint8_t>(HsTag::kVote),
        bed.make_vote(HsPhase::kPrepare, 1, to_bytes("other"), s).to_bytes());
  }
  for (const auto& [tag, payload] : bed.outbox) {
    EXPECT_NE(tag, static_cast<std::uint8_t>(HsTag::kQc));
  }
}

TEST(HotStuffUnit, LeaderFormsQcFromMatchingVotes) {
  Bed bed;
  auto leader = bed.make(1);
  leader->start();
  bed.outbox.clear();
  for (ReplicaId s = 2; s <= 5; ++s) {  // 4 + leader's own vote = 5
    leader->on_message(
        s, static_cast<std::uint8_t>(HsTag::kVote),
        bed.make_vote(HsPhase::kPrepare, 1, to_bytes("hs-value"), s)
            .to_bytes());
  }
  bool qc_out = false;
  for (const auto& [tag, payload] : bed.outbox) {
    if (tag == static_cast<std::uint8_t>(HsTag::kQc)) {
      const auto msg = HsQcMsg::from_bytes(payload);
      EXPECT_EQ(msg.qc.phase, HsPhase::kPrepare);
      EXPECT_GE(msg.qc.signers.size(), 5U);
      qc_out = true;
    }
  }
  EXPECT_TRUE(qc_out);
}

TEST(HotStuffUnit, GarbageDropped) {
  Bed bed;
  auto follower = bed.make(2);
  follower->start();
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kProposal),
                       Bytes{1, 2});
  follower->on_message(1, static_cast<std::uint8_t>(HsTag::kQc),
                       Bytes(64, 0xaa));
  follower->on_message(1, 200, Bytes{});
  EXPECT_FALSE(follower->decided());
}

TEST(HotStuffUnit, NewViewCodecRejectsTruncationAndTrailingBytes) {
  Bed bed;
  HsNewView nv;
  nv.view = 2;
  nv.prepare_qc = bed.make_qc(HsPhase::kPrepare, 1, to_bytes("value"), 5);
  nv.sender = 3;
  nv.sender_sig = to_bytes("sig");
  const Bytes encoded = nv.to_bytes();

  const HsNewView back = HsNewView::from_bytes(
      ByteSpan(encoded.data(), encoded.size()));
  EXPECT_EQ(back.view, nv.view);
  EXPECT_EQ(back.prepare_qc.view, nv.prepare_qc.view);
  EXPECT_EQ(back.prepare_qc.signers, nv.prepare_qc.signers);
  EXPECT_EQ(back.sender, nv.sender);
  EXPECT_EQ(back.sender_sig, nv.sender_sig);

  // Hostile buffers: truncation at every byte boundary throws, and so do
  // trailing garbage bytes (from_bytes demands exact consumption).
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_THROW(HsNewView::from_bytes(ByteSpan(encoded.data(), cut)),
                 CodecError)
        << cut;
  }
  Bytes padded = encoded;
  padded.push_back(0x00);
  EXPECT_THROW(
      HsNewView::from_bytes(ByteSpan(padded.data(), padded.size())),
      CodecError);
}

TEST(HotStuffUnit, QuorumCertCodecRoundtrip) {
  Bed bed;
  const auto qc = bed.make_qc(HsPhase::kCommit, 3, to_bytes("value"), 5);
  Writer w;
  qc.encode(w);
  Reader r(ByteSpan(w.data().data(), w.data().size()));
  const auto decoded = QuorumCert::decode(r);
  EXPECT_EQ(decoded.phase, qc.phase);
  EXPECT_EQ(decoded.view, qc.view);
  EXPECT_EQ(decoded.value, qc.value);
  EXPECT_EQ(decoded.signers, qc.signers);
  EXPECT_EQ(decoded.sigs, qc.sigs);
}

}  // namespace
}  // namespace probft::hotstuff
