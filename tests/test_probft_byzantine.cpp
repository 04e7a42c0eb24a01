// ProBFT under active Byzantine attacks (paper §4.3, Figure 4).
#include <gtest/gtest.h>

#include "protocol_test_util.hpp"
#include "sim/cluster.hpp"

namespace probft::sim {
namespace {

using testutil::TestBed;

ClusterConfig attack_config(std::uint32_t n, std::uint32_t f,
                            SplitStrategy split, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kProbft;
  cfg.n = n;
  cfg.f = f;
  cfg.seed = seed;
  cfg.l = 1.5;
  cfg.split = split;
  cfg.sync.base_timeout = 100'000;
  cfg.latency.min_delay = 500;
  cfg.latency.max_delay_post = 5'000;
  cfg.behaviors.assign(n, Behavior::kHonest);
  cfg.behaviors[0] = Behavior::kEquivocateLeader;  // replica 1 leads view 1
  for (std::uint32_t i = 1; i < f; ++i) {
    cfg.behaviors[i] = Behavior::kColludeFollower;
  }
  return cfg;
}

TEST(ProbftByzantine, OptimalSplitNeverViolatesAgreement) {
  // Fig. 4c attack across many seeds: correct replicas must never decide
  // two different values.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto cfg = attack_config(13, 4, SplitStrategy::kOptimal, seed);
    Cluster cluster(cfg);
    cluster.start();
    cluster.run_to_completion(/*deadline=*/60'000'000);
    EXPECT_TRUE(cluster.agreement_ok()) << "seed " << seed;
  }
}

TEST(ProbftByzantine, HalvesSplitNeverViolatesAgreement) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    auto cfg = attack_config(13, 4, SplitStrategy::kHalves, seed);
    Cluster cluster(cfg);
    cluster.start();
    cluster.run_to_completion(/*deadline=*/60'000'000);
    EXPECT_TRUE(cluster.agreement_ok()) << "seed " << seed;
  }
}

TEST(ProbftByzantine, GeneralSplitNeverViolatesAgreement) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    auto cfg = attack_config(13, 4, SplitStrategy::kGeneralThreeWay, seed);
    Cluster cluster(cfg);
    cluster.start();
    cluster.run_to_completion(/*deadline=*/60'000'000);
    EXPECT_TRUE(cluster.agreement_ok()) << "seed " << seed;
  }
}

TEST(ProbftByzantine, EquivocationEventuallyDetectedAndResolved) {
  // The attack may stall view 1, but a later correct leader must finish the
  // consensus: liveness despite the equivocating leader.
  auto cfg = attack_config(13, 4, SplitStrategy::kOptimal, 7);
  Cluster cluster(cfg);
  cluster.start();
  EXPECT_TRUE(cluster.run_to_completion(/*deadline=*/120'000'000));
  EXPECT_TRUE(cluster.agreement_ok());
}

TEST(ProbftByzantine, SomeReplicaBlocksViewOnEquivocation) {
  // With cross-partition samples, at least one correct replica should see
  // both leader-signed values while still in view 1 and block.
  auto cfg = attack_config(13, 1, SplitStrategy::kHalves, 3);
  Cluster cluster(cfg);
  cluster.start();
  // Run only a short window so view 1 is still active on most replicas.
  cluster.simulator().run_until(50'000);
  int blocked = 0;
  for (ReplicaId id = 2; id <= 13; ++id) {
    const auto* replica = cluster.probft(id);
    if (replica != nullptr && replica->current_view() == 1 &&
        replica->view_blocked()) {
      ++blocked;
    }
  }
  EXPECT_GT(blocked, 0);
}

TEST(ProbftByzantine, FloodingCannotForgeQuorums) {
  // A flooder claims a fabricated all-replicas sample: correct replicas
  // must reject every flooded message (VRF proof mismatch), so nobody
  // decides the flooded value.
  ClusterConfig cfg;
  cfg.protocol = Protocol::kProbft;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 5;
  cfg.behaviors.assign(7, Behavior::kHonest);
  cfg.behaviors[3] = Behavior::kFlood;  // replica 4 floods; leader 1 honest
  Cluster cluster(cfg);
  cluster.start();
  cluster.run_to_completion(/*deadline=*/60'000'000);
  for (const auto& value : cluster.decided_values()) {
    EXPECT_NE(value, to_bytes("flood-value"));
  }
}

// ---- Direct replica-level adversarial message tests ----

class ByzantineUnitTest : public ::testing::Test {
 protected:
  // s == n so certificate construction is deterministic.
  ByzantineUnitTest() : bed_(9, 2, 1.7, 3.0) {
    replica_ = bed_.make_replica(2);
    replica_->start();
  }

  TestBed bed_;
  std::unique_ptr<core::Replica> replica_;
};

TEST_F(ByzantineUnitTest, EquivocationBlocksView) {
  using core::MsgTag;
  const Bytes a = to_bytes("value-A");
  const Bytes b = to_bytes("value-B");
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, a, 1).to_bytes());
  EXPECT_TRUE(replica_->voted());
  EXPECT_FALSE(replica_->view_blocked());
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, b, 1).to_bytes());
  EXPECT_TRUE(replica_->view_blocked());
  EXPECT_FALSE(replica_->decided());
}

TEST_F(ByzantineUnitTest, EquivocationViaPrepareAlsoBlocks) {
  using core::MsgTag;
  const Bytes a = to_bytes("value-A");
  const Bytes b = to_bytes("value-B");
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, a, 1).to_bytes());
  // A Prepare from replica 5 carrying the leader-signed OTHER value.
  replica_->on_message(
      5, core::tag_byte(MsgTag::kPrepare),
      bed_.make_phase(MsgTag::kPrepare, 1, b, 5, 1).to_bytes());
  EXPECT_TRUE(replica_->view_blocked());
}

TEST_F(ByzantineUnitTest, EquivocationGossipsBothTuples) {
  using core::MsgTag;
  bed_.outbox.clear();
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, to_bytes("A"), 1).to_bytes());
  const auto before = bed_.outbox.size();
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, to_bytes("B"), 1).to_bytes());
  // Blocking broadcasts the offending message plus our own proposal.
  ASSERT_GE(bed_.outbox.size(), before + 2);
  EXPECT_EQ(bed_.outbox[before].to, 0U);      // broadcast
  EXPECT_EQ(bed_.outbox[before + 1].to, 0U);  // broadcast
}

TEST_F(ByzantineUnitTest, BlockedViewIgnoresFurtherMessages) {
  using core::MsgTag;
  const Bytes a = to_bytes("value-A");
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, a, 1).to_bytes());
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, to_bytes("value-B"), 1).to_bytes());
  ASSERT_TRUE(replica_->view_blocked());
  // Deliver a full set of prepares and commits for A: must NOT decide.
  for (ReplicaId s = 1; s <= 9; ++s) {
    replica_->on_message(
        s, core::tag_byte(MsgTag::kPrepare),
        bed_.make_phase(MsgTag::kPrepare, 1, a, s, 1).to_bytes());
    replica_->on_message(
        s, core::tag_byte(MsgTag::kCommit),
        bed_.make_phase(MsgTag::kCommit, 1, a, s, 1).to_bytes());
  }
  EXPECT_FALSE(replica_->decided());
}

TEST_F(ByzantineUnitTest, FramingWithInvalidLeaderSigDoesNotBlock) {
  using core::MsgTag;
  const Bytes a = to_bytes("value-A");
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, a, 1).to_bytes());
  // Byzantine replica 5 fabricates a conflicting tuple with a bogus
  // "leader" signature (its own): must not fool the equivocation check.
  auto fake = bed_.make_phase(MsgTag::kPrepare, 1, to_bytes("value-B"), 5,
                              /*leader=*/5);
  replica_->on_message(5, core::tag_byte(MsgTag::kPrepare), fake.to_bytes());
  EXPECT_FALSE(replica_->view_blocked());
}

TEST_F(ByzantineUnitTest, GarbageMessagesAreDropped) {
  replica_->on_message(3, 2, Bytes{0x01, 0x02});
  replica_->on_message(3, 99, Bytes{});
  replica_->on_message(3, 1, Bytes(1000, 0xff));
  EXPECT_FALSE(replica_->view_blocked());
  EXPECT_EQ(replica_->current_view(), 1U);
}

TEST_F(ByzantineUnitTest, PrepareFromNonSampleMemberRejected) {
  using core::MsgTag;
  const Bytes a = to_bytes("value-A");
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, a, 1).to_bytes());
  // Craft a prepare whose claimed sample excludes replica 2 (us).
  auto m = bed_.make_phase(MsgTag::kPrepare, 1, a, 5, 1);
  auto& sample = m.sample;
  sample.erase(std::remove(sample.begin(), sample.end(), 2), sample.end());
  m.sender_sig = bed_.suite().sign(bed_.secret(5),
                                   m.signing_bytes(MsgTag::kPrepare));
  replica_->on_message(5, core::tag_byte(MsgTag::kPrepare), m.to_bytes());
  // Not counted: we cannot know internal counts directly, but a quorum of
  // 9 such messages must NOT make the replica prepare/commit.
  EXPECT_FALSE(replica_->decided());
}

TEST_F(ByzantineUnitTest, DuplicateJustificationSendersRejected) {
  // A Byzantine view-2 leader duplicates one NewLeaderMsg to inflate its
  // value's mode count: sender 4 prepared "evil" (repeated 3×) vs honest
  // senders 5 and 6 who prepared "locked". Per-message counting used to
  // make "evil" the mode (3 > 2) while the distinct-sender check still
  // passed (6 distinct); the fix rejects any justification with duplicate
  // senders outright.
  using core::MsgTag;
  auto replica = bed_.make_replica(5);
  replica->start();
  const Bytes evil = to_bytes("evil");
  const Bytes locked = to_bytes("locked");

  const auto nl_evil =
      bed_.make_new_leader(2, 4, 1, evil, bed_.make_cert(1, evil, 4, 1));
  std::vector<core::NewLeaderMsg> dup_set = {nl_evil, nl_evil, nl_evil};
  dup_set.push_back(
      bed_.make_new_leader(2, 5, 1, locked, bed_.make_cert(1, locked, 5, 1)));
  dup_set.push_back(
      bed_.make_new_leader(2, 6, 1, locked, bed_.make_cert(1, locked, 6, 1)));
  for (ReplicaId s = 7; s <= 9; ++s) {
    dup_set.push_back(bed_.make_new_leader(2, s));
  }
  // 8 messages, 6 distinct senders: duplicates must poison the whole
  // justification, for the skewed value AND for any other value.
  EXPECT_FALSE(replica->safe_proposal(bed_.make_propose(2, evil, 2, dup_set)));
  EXPECT_FALSE(
      replica->safe_proposal(bed_.make_propose(2, locked, 2, dup_set)));

  // The same reports without duplicates: the honest mode ("locked") is the
  // only safe proposal.
  std::vector<core::NewLeaderMsg> clean_set = {dup_set[0], dup_set[3],
                                               dup_set[4]};
  for (ReplicaId s = 7; s <= 9; ++s) {
    clean_set.push_back(bed_.make_new_leader(2, s));
  }
  EXPECT_TRUE(
      replica->safe_proposal(bed_.make_propose(2, locked, 2, clean_set)));
  EXPECT_FALSE(
      replica->safe_proposal(bed_.make_propose(2, evil, 2, clean_set)));
}

TEST_F(ByzantineUnitTest, LeaderCountsDistinctNewLeaderSendersOnly) {
  // Leader side of the same bug: re-sent NewLeader messages must not count
  // toward the deterministic quorum.
  using core::MsgTag;
  auto leader = bed_.make_replica(2);
  leader->start();
  for (ReplicaId s = 1; s <= 9; ++s) {
    if (s == 2) continue;
    core::WishMsg wish;
    wish.view = 2;
    wish.sender = s;
    wish.sender_sig = bed_.suite().sign(bed_.secret(s), wish.signing_bytes());
    leader->on_message(s, core::tag_byte(MsgTag::kWish), wish.to_bytes());
  }
  ASSERT_EQ(leader->current_view(), 2U);
  bed_.outbox.clear();
  // Three senders, one of them spamming: 3 distinct < det quorum 6.
  const auto spam = bed_.make_new_leader(2, 4);
  for (int i = 0; i < 5; ++i) {
    leader->on_message(4, core::tag_byte(MsgTag::kNewLeader),
                       spam.to_bytes());
  }
  leader->on_message(5, core::tag_byte(MsgTag::kNewLeader),
                     bed_.make_new_leader(2, 5).to_bytes());
  leader->on_message(6, core::tag_byte(MsgTag::kNewLeader),
                     bed_.make_new_leader(2, 6).to_bytes());
  for (const auto& sent : bed_.outbox) {
    EXPECT_NE(sent.tag, core::tag_byte(MsgTag::kPropose));
  }
  // Three more distinct senders complete the quorum: now it proposes.
  for (ReplicaId s = 7; s <= 9; ++s) {
    leader->on_message(s, core::tag_byte(MsgTag::kNewLeader),
                       bed_.make_new_leader(2, s).to_bytes());
  }
  bool proposed = false;
  for (const auto& sent : bed_.outbox) {
    if (sent.tag == core::tag_byte(MsgTag::kPropose)) proposed = true;
  }
  EXPECT_TRUE(proposed);
}

TEST_F(ByzantineUnitTest, FutureViewProposeFromNonLeaderCannotShadow) {
  // Replica 5 (NOT the leader of view 2) sends a garbage view-2 Propose
  // while we are still in view 1. It used to occupy the one buffer slot
  // for view 2, so the real leader's proposal arriving later was never
  // buffered and the view stalled. Now non-leader proposals are dropped.
  using core::MsgTag;
  auto replica = bed_.make_replica(3);
  replica->start();
  replica->on_message(
      5, core::tag_byte(MsgTag::kPropose),
      bed_.make_propose(2, to_bytes("shadow"), 5).to_bytes());

  std::vector<core::NewLeaderMsg> m_set;
  for (ReplicaId s = 4; s <= 9; ++s) {
    m_set.push_back(bed_.make_new_leader(2, s));
  }
  const Bytes real = to_bytes("real-proposal");
  replica->on_message(2, core::tag_byte(MsgTag::kPropose),
                      bed_.make_propose(2, real, 2, m_set).to_bytes());

  for (ReplicaId s = 1; s <= 9; ++s) {
    if (s == 3) continue;
    core::WishMsg wish;
    wish.view = 2;
    wish.sender = s;
    wish.sender_sig = bed_.suite().sign(bed_.secret(s), wish.signing_bytes());
    replica->on_message(s, core::tag_byte(MsgTag::kWish), wish.to_bytes());
  }
  ASSERT_EQ(replica->current_view(), 2U);
  EXPECT_TRUE(replica->voted());
  // The Prepare it multicast must carry the real leader's value.
  bool prepared_real = false;
  for (const auto& sent : bed_.outbox) {
    if (sent.tag != core::tag_byte(MsgTag::kPrepare)) continue;
    const auto m = core::PhaseMsg::from_bytes(sent.payload);
    if (m.proposal.view == 2) {
      EXPECT_EQ(m.proposal.value, real);
      prepared_real = true;
    }
  }
  EXPECT_TRUE(prepared_real);
}

TEST_F(ByzantineUnitTest, BlockedViewStillBuffersFutureViewMessages) {
  // Equivocation blocks view 1; messages for view 2 arriving while blocked
  // (the new leader's Propose AND its Prepares) must be buffered, not
  // dropped, so the replica can vote and prepare immediately on entering
  // view 2. Dropping them used to stall the next view.
  using core::MsgTag;
  auto replica = bed_.make_replica(3);
  replica->start();
  replica->on_message(1, core::tag_byte(MsgTag::kPropose),
                      bed_.make_propose(1, to_bytes("A"), 1).to_bytes());
  replica->on_message(1, core::tag_byte(MsgTag::kPropose),
                      bed_.make_propose(1, to_bytes("B"), 1).to_bytes());
  ASSERT_TRUE(replica->view_blocked());

  std::vector<core::NewLeaderMsg> m_set;
  for (ReplicaId s = 4; s <= 9; ++s) {
    m_set.push_back(bed_.make_new_leader(2, s));
  }
  const Bytes next = to_bytes("next-view-value");
  replica->on_message(2, core::tag_byte(MsgTag::kPropose),
                      bed_.make_propose(2, next, 2, m_set).to_bytes());
  for (ReplicaId s = 1; s <= 9; ++s) {
    replica->on_message(
        s, core::tag_byte(MsgTag::kPrepare),
        bed_.make_phase(MsgTag::kPrepare, 2, next, s, 2).to_bytes());
  }
  // Still blocked in view 1 (the view-2 traffic is only buffered).
  EXPECT_EQ(replica->current_view(), 1U);
  EXPECT_TRUE(replica->view_blocked());

  for (ReplicaId s = 1; s <= 9; ++s) {
    if (s == 3) continue;
    core::WishMsg wish;
    wish.view = 2;
    wish.sender = s;
    wish.sender_sig = bed_.suite().sign(bed_.secret(s), wish.signing_bytes());
    replica->on_message(s, core::tag_byte(MsgTag::kWish), wish.to_bytes());
  }
  ASSERT_EQ(replica->current_view(), 2U);
  EXPECT_FALSE(replica->view_blocked());
  EXPECT_TRUE(replica->voted());
  // The buffered prepares must have counted: the replica is prepared on
  // the new value in view 2.
  EXPECT_EQ(replica->prepared_view(), 2U);
  EXPECT_EQ(replica->prepared_value(), next);
}

TEST_F(ByzantineUnitTest, WrongPhaseSeedRejected) {
  using core::MsgTag;
  const Bytes a = to_bytes("value-A");
  replica_->on_message(1, core::tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, a, 1).to_bytes());
  // A "commit"-seeded sample shipped in a Prepare message: VRF check fails.
  auto m = bed_.make_phase(MsgTag::kCommit, 1, a, 5, 1);
  core::PhaseMsg forged = m;
  forged.sender_sig = bed_.suite().sign(
      bed_.secret(5), forged.signing_bytes(MsgTag::kPrepare));
  for (ReplicaId s = 1; s <= 9; ++s) {
    replica_->on_message(5, core::tag_byte(MsgTag::kPrepare),
                         forged.to_bytes());
  }
  EXPECT_FALSE(replica_->decided());
}

TEST(InstanceTag, PrepareSignedForOneSlotFailsInAnother) {
  // An SMR slot's instance signs under its (group, slot) tag, so a
  // prepared certificate from slot 0 does not verify in slot 1's
  // instance: a leader cannot replay one slot's votes into another.
  TestBed bed(4, 1, 1.7, 1.5);  // q = 3, sample = all four
  const Bytes value = to_bytes("x");
  bed.instance = to_bytes("slot-0");
  const auto cert = bed.make_cert(1, value, /*target=*/2, /*leader=*/1);
  ASSERT_EQ(cert.size(), bed.q());
  const auto slot0 = bed.make_replica(2);
  EXPECT_TRUE(slot0->prepared_cert_valid(cert, 1, value, 2));
  bed.instance = to_bytes("slot-1");
  const auto slot1 = bed.make_replica(2);
  EXPECT_FALSE(slot1->prepared_cert_valid(cert, 1, value, 2));
  bed.instance.clear();  // single-shot: no tag
  const auto plain = bed.make_replica(2);
  EXPECT_FALSE(plain->prepared_cert_valid(cert, 1, value, 2));
}

}  // namespace
}  // namespace probft::sim
