// Verification fast path (content-addressed verdict cache + batched
// signature verification + wire-level cert dedup) must be semantically
// invisible: every predicate verdict and every cluster decision has to be
// bit-identical between fast_verify on and off. These tests pin that, at
// the predicate level on crafted (including adversarial) justifications
// and at the cluster level on full view-change runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "counting_suite.hpp"
#include "protocol_test_util.hpp"
#include "sim/cluster.hpp"

namespace probft::core {
namespace {

using testutil::TestBed;

class FastVerifyTest : public ::testing::Test {
 protected:
  // s == n == 9 keeps certificate construction deterministic.
  FastVerifyTest() : bed_(9, 2, 1.7, 3.0) {
    fast_ = bed_.make_replica(5, to_bytes("own-value"), /*fast_verify=*/true);
    slow_ = bed_.make_replica(5, to_bytes("own-value"), /*fast_verify=*/false);
    fast_->start();
    slow_->start();
  }

  void expect_same_verdict(const ProposeMsg& m, const char* label) {
    EXPECT_EQ(fast_->safe_proposal(m), slow_->safe_proposal(m)) << label;
    // Re-query to exercise the warm-cache path too.
    EXPECT_EQ(fast_->safe_proposal(m), slow_->safe_proposal(m))
        << label << " (warm)";
  }

  TestBed bed_;
  std::unique_ptr<Replica> fast_;
  std::unique_ptr<Replica> slow_;
};

TEST_F(FastVerifyTest, SafeProposalVerdictsMatchSlowPath) {
  const Bytes locked = to_bytes("locked");
  const Bytes evil = to_bytes("evil");

  // Valid justification: one prepared report + five empty ones.
  std::vector<NewLeaderMsg> good;
  good.push_back(
      bed_.make_new_leader(2, 4, 1, locked, bed_.make_cert(1, locked, 4, 1)));
  for (ReplicaId s = 5; s <= 9; ++s) {
    good.push_back(bed_.make_new_leader(2, s));
  }
  expect_same_verdict(bed_.make_propose(2, locked, 2, good), "good/locked");
  expect_same_verdict(bed_.make_propose(2, evil, 2, good), "good/evil");

  // Duplicate senders.
  std::vector<NewLeaderMsg> dup = good;
  dup.push_back(good[0]);
  expect_same_verdict(bed_.make_propose(2, locked, 2, dup), "dup-sender");

  // Forged certificate: report "evil" backed by a cert for another value.
  std::vector<NewLeaderMsg> forged;
  forged.push_back(bed_.make_new_leader(2, 4, 1, evil,
                                        bed_.make_cert(1, locked, 4, 1)));
  for (ReplicaId s = 5; s <= 9; ++s) {
    forged.push_back(bed_.make_new_leader(2, s));
  }
  expect_same_verdict(bed_.make_propose(2, evil, 2, forged), "forged-cert");

  // Corrupted signature inside one certificate member.
  std::vector<NewLeaderMsg> corrupt = good;
  ASSERT_FALSE(corrupt[0].cert.empty());
  // Cert entries are shared immutable handles: clone before tampering
  // (which also resets the clone's digest memo).
  auto bad_member = TestBed::clone_cert_entry(corrupt[0].cert[0]);
  bad_member->sender_sig[0] ^= 1;
  corrupt[0].cert[0] = bad_member;
  corrupt[0].digest_memo_.clear();  // re-sign over the mutated cert
  corrupt[0].sender_sig =
      bed_.suite().sign(bed_.secret(4), corrupt[0].signing_bytes());
  expect_same_verdict(bed_.make_propose(2, locked, 2, corrupt),
                      "corrupt-member-sig");

  // Below the deterministic quorum.
  std::vector<NewLeaderMsg> few(good.begin(), good.begin() + 5);
  expect_same_verdict(bed_.make_propose(2, locked, 2, few), "sub-quorum");
}

TEST_F(FastVerifyTest, NegativeVerdictsAreCachedExactly) {
  // A justification rejected once must be rejected identically on every
  // re-delivery (the cache stores negative verdicts too).
  const Bytes locked = to_bytes("locked");
  std::vector<NewLeaderMsg> bad;
  bad.push_back(bed_.make_new_leader(2, 4, 1, locked,
                                     bed_.make_cert(1, locked, 4, 1)));
  ASSERT_FALSE(bad[0].cert.empty());
  auto poisoned = TestBed::clone_cert_entry(bad[0].cert[0]);
  poisoned->vrf_proof[0] ^= 1;  // poison one VRF proof
  bad[0].cert[0] = poisoned;
  bad[0].digest_memo_.clear();
  bad[0].sender_sig =
      bed_.suite().sign(bed_.secret(4), bad[0].signing_bytes());
  for (ReplicaId s = 5; s <= 9; ++s) {
    bad.push_back(bed_.make_new_leader(2, s));
  }
  const auto m = bed_.make_propose(2, locked, 2, bad);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(fast_->safe_proposal(m));
    EXPECT_FALSE(slow_->safe_proposal(m));
  }
}

/// The payload of the first message in `bed`'s outbox sent to `to` with
/// `tag` (empty if none).
Bytes sent_to(const TestBed& bed, ReplicaId to, MsgTag tag) {
  const auto it = std::find_if(
      bed.outbox.begin(), bed.outbox.end(), [&](const auto& sent) {
        return sent.to == to && sent.tag == tag_byte(tag);
      });
  return it == bed.outbox.end() ? Bytes{} : it->payload;
}

// A replica vouches in its verdict cache for every message it signs, so
// its own copy costs a lookup when the transport delivers it back. The
// cache key covers the signature: anything else claiming the same content
// is still verified.

TEST(FastVerifyVouch, TamperedCopyOfOwnPrepareIsRejected) {
  TestBed bed(9, 2, 1.7, 3.0);  // q == s == n: every Prepare is needed
  auto replica = bed.make_replica(5);
  replica->start();
  const Bytes value = to_bytes("v");
  replica->on_message(1, tag_byte(MsgTag::kPropose),
                      bed.make_propose(1, value, 1).to_bytes());
  const Bytes own = sent_to(bed, 5, MsgTag::kPrepare);
  ASSERT_FALSE(own.empty());

  // This replica's id and content under one flipped signature byte,
  // relayed by a peer after the genuine Prepare was vouched for.
  PhaseMsg forged = PhaseMsg::from_bytes(own);
  forged.sender_sig[0] ^= 1;
  replica->on_message(3, tag_byte(MsgTag::kPrepare), forged.to_bytes());
  for (ReplicaId sender = 1; sender <= bed.n(); ++sender) {
    if (sender == 5) continue;
    replica->on_message(
        sender, tag_byte(MsgTag::kPrepare),
        bed.make_phase(MsgTag::kPrepare, 1, value, sender, 1).to_bytes());
  }
  EXPECT_EQ(replica->prepared_view(), 0U) << "forged copy was counted";
  replica->on_message(5, tag_byte(MsgTag::kPrepare), own);
  EXPECT_EQ(replica->prepared_view(), 1U);
}

TEST(FastVerifyVouch, ForgedLeaderSignatureIsRejectedAtTheLeader) {
  TestBed bed(9, 2, 1.7, 3.0);
  auto leader = bed.make_replica(1);  // view 1's leader proposes on start
  leader->start();
  const Bytes value = leader->config().my_value;
  const Bytes own = sent_to(bed, 1, MsgTag::kPrepare);
  ASSERT_FALSE(own.empty());
  leader->on_message(1, tag_byte(MsgTag::kPrepare), own);

  // The leader's own tuple under a forged leader signature, in a Prepare
  // that peer 3 signed correctly.
  PhaseMsg forged = bed.make_phase(MsgTag::kPrepare, 1, value, 3, 1);
  forged.proposal.leader_sig[0] ^= 1;
  forged.sender_sig = bed.suite().sign(
      bed.secret(3), forged.signing_bytes(MsgTag::kPrepare));
  leader->on_message(3, tag_byte(MsgTag::kPrepare), forged.to_bytes());
  for (ReplicaId sender = 2; sender <= bed.n(); ++sender) {
    if (sender == 3) continue;
    leader->on_message(
        sender, tag_byte(MsgTag::kPrepare),
        bed.make_phase(MsgTag::kPrepare, 1, value, sender, 1).to_bytes());
  }
  EXPECT_EQ(leader->prepared_view(), 0U) << "forged tuple was counted";
  EXPECT_FALSE(leader->view_blocked());
  leader->on_message(
      3, tag_byte(MsgTag::kPrepare),
      bed.make_phase(MsgTag::kPrepare, 1, value, 3, 1).to_bytes());
  EXPECT_EQ(leader->prepared_view(), 1U);
}

TEST(FastVerifyVouch, PhaseMessagesPastTheirQuorumAreNotVerified) {
  // The Prepare and Commit buckets only feed the quorum checks, so once
  // this replica has sent its Commit (resp. decided) a late Prepare
  // (resp. Commit) is dropped unverified, with the fast path on or off.
  for (const bool fast_verify : {true, false}) {
    TestBed bed(9, 2, 1.7, 2.0);  // q = 6 < s = n = 9
    testutil::CountingSuite counting(crypto::make_sim_suite());
    auto replica =
        bed.make_replica(5, to_bytes("own-value"), fast_verify, &counting);
    replica->start();
    const Bytes value = to_bytes("v");
    const auto deliver = [&](MsgTag tag, ReplicaId sender) {
      replica->on_message(
          sender, tag_byte(tag),
          bed.make_phase(tag, 1, value, sender, 1).to_bytes());
    };
    const auto verify_calls = [&] {
      return counting.verifies + counting.vrf_verifies;
    };
    replica->on_message(1, tag_byte(MsgTag::kPropose),
                        bed.make_propose(1, value, 1).to_bytes());
    for (const ReplicaId sender : {1U, 2U, 3U, 4U, 6U, 7U}) {
      deliver(MsgTag::kPrepare, sender);
    }
    ASSERT_EQ(replica->prepared_view(), 1U);
    ASSERT_FALSE(sent_to(bed, 9, MsgTag::kCommit).empty());

    auto before = verify_calls();
    deliver(MsgTag::kPrepare, 8);
    EXPECT_EQ(verify_calls(), before) << "fast_verify " << fast_verify;

    for (const ReplicaId sender : {1U, 2U, 3U, 4U, 6U, 7U}) {
      deliver(MsgTag::kCommit, sender);
    }
    ASSERT_TRUE(replica->decided());
    before = verify_calls();
    deliver(MsgTag::kCommit, 8);
    deliver(MsgTag::kPrepare, 9);
    EXPECT_EQ(verify_calls(), before) << "fast_verify " << fast_verify;
    EXPECT_EQ(replica->decided_value(), value);
    EXPECT_EQ(bed.decisions.size(), 1U);
  }
}

/// Full-cluster determinism: a forced view-change run (view 1 prepares,
/// commits held until the first timeout) must produce bit-identical
/// decision records with the fast path on and off, seed by seed.
TEST(FastVerifyCluster, ViewChangeDecisionsBitIdentical) {
  using namespace probft::sim;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    std::vector<DecisionRecord> per_mode[2];
    for (int fast = 0; fast < 2; ++fast) {
      ClusterConfig cfg;
      cfg.protocol = Protocol::kProbft;
      cfg.n = 30;
      cfg.f = 3;
      cfg.l = 1.5;
      cfg.o = 1.7;
      cfg.seed = seed;
      cfg.fast_verify = fast == 1;
      cfg.sync.base_timeout = 200'000;
      Cluster cluster(cfg);
      net::Simulator& sim = cluster.simulator();
      const TimePoint hold = cfg.sync.base_timeout;
      cluster.network().set_filter(
          [&sim, hold](ReplicaId, ReplicaId, std::uint8_t tag) {
            return tag == tag_byte(MsgTag::kCommit) && sim.now() < hold;
          });
      cluster.start();
      EXPECT_TRUE(cluster.run_to_completion(/*deadline=*/600'000'000))
          << "seed " << seed << " fast " << fast;
      EXPECT_TRUE(cluster.agreement_ok()) << "seed " << seed;
      per_mode[fast] = cluster.decisions();
      for (const auto& d : per_mode[fast]) {
        EXPECT_GE(d.view, 2U) << "seed " << seed;  // view 1 must not decide
      }
    }
    ASSERT_EQ(per_mode[0].size(), per_mode[1].size()) << "seed " << seed;
    for (std::size_t i = 0; i < per_mode[0].size(); ++i) {
      EXPECT_EQ(per_mode[0][i].replica, per_mode[1][i].replica);
      EXPECT_EQ(per_mode[0][i].view, per_mode[1][i].view);
      EXPECT_EQ(per_mode[0][i].value, per_mode[1][i].value);
      EXPECT_EQ(per_mode[0][i].at, per_mode[1][i].at);
    }
  }
}

}  // namespace
}  // namespace probft::core
