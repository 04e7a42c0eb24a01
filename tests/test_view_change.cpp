// Cross-view safety mechanics (paper §4.3 "Probabilistic Agreement with
// view change", Theorem 8): once a value is decided, later views must
// re-propose it. These tests drive replicas directly through view changes
// using crafted messages (TestBed; s == n keeps certificates deterministic)
// and also exercise the full cluster path.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "protocol_test_util.hpp"
#include "sim/cluster.hpp"
#include "sim/node_factory.hpp"

namespace probft::core {
namespace {

using testutil::TestBed;

class ViewChangeTest : public ::testing::Test {
 protected:
  // n = 9, l = 3 -> q = 9 = s = n; det quorum = 6 (f = 2).
  ViewChangeTest() : bed_(9, 2, 1.7, 3.0) {}

  /// Brings a replica to "prepared" state in view 1 on `value`. Delivers a
  /// crafted Prepare from every replica (including one under the target's
  /// own id — the TestBed does not loop its multicasts back, so the
  /// replica's own Prepare never arrives otherwise and q = n needs all
  /// nine senders).
  void prepare_replica(Replica& replica, const Bytes& value) {
    replica.on_message(1, tag_byte(MsgTag::kPropose),
                       bed_.make_propose(1, value, 1).to_bytes());
    for (ReplicaId s = 1; s <= 9; ++s) {
      replica.on_message(
          s, tag_byte(MsgTag::kPrepare),
          bed_.make_phase(MsgTag::kPrepare, 1, value, s, 1).to_bytes());
    }
  }

  /// Sends enough signed wishes for view `v` to move the replica there.
  void force_view(Replica& replica, View v) {
    for (ReplicaId s = 1; s <= 9; ++s) {
      if (s == replica.config().id) continue;
      WishMsg wish;
      wish.view = v;
      wish.sender = s;
      wish.sender_sig =
          bed_.suite().sign(bed_.secret(s), wish.signing_bytes());
      replica.on_message(s, tag_byte(MsgTag::kWish), wish.to_bytes());
    }
  }

  TestBed bed_;
};

TEST_F(ViewChangeTest, PreparedReplicaDecidesAfterCommits) {
  auto replica = bed_.make_replica(3);
  replica->start();
  const Bytes value = to_bytes("locked-value");
  prepare_replica(*replica, value);
  EXPECT_EQ(replica->prepared_view(), 1U);
  EXPECT_EQ(replica->prepared_value(), value);
  for (ReplicaId s = 1; s <= 9; ++s) {
    replica->on_message(
        s, tag_byte(MsgTag::kCommit),
        bed_.make_phase(MsgTag::kCommit, 1, value, s, 1).to_bytes());
  }
  ASSERT_TRUE(replica->decided());
  EXPECT_EQ(replica->decided_value(), value);
}

TEST_F(ViewChangeTest, NewLeaderMessageCarriesPreparedState) {
  auto replica = bed_.make_replica(3);
  replica->start();
  prepare_replica(*replica, to_bytes("locked-value"));
  bed_.outbox.clear();
  force_view(*replica, 2);
  EXPECT_EQ(replica->current_view(), 2U);
  // The replica must have sent NewLeader to leader(2) = replica 2.
  bool found = false;
  for (const auto& sent : bed_.outbox) {
    if (sent.tag != tag_byte(MsgTag::kNewLeader)) continue;
    EXPECT_EQ(sent.to, 2U);
    const auto msg = NewLeaderMsg::from_bytes(sent.payload);
    EXPECT_EQ(msg.view, 2U);
    EXPECT_EQ(msg.prepared_view, 1U);
    EXPECT_EQ(msg.prepared_value, to_bytes("locked-value"));
    EXPECT_GE(msg.cert.size(), bed_.q());
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ViewChangeTest, UnpreparedReplicaSendsEmptyNewLeader) {
  auto replica = bed_.make_replica(3);
  replica->start();
  bed_.outbox.clear();
  force_view(*replica, 2);
  for (const auto& sent : bed_.outbox) {
    if (sent.tag != tag_byte(MsgTag::kNewLeader)) continue;
    const auto msg = NewLeaderMsg::from_bytes(sent.payload);
    EXPECT_EQ(msg.prepared_view, 0U);
    EXPECT_TRUE(msg.prepared_value.empty());
    EXPECT_TRUE(msg.cert.empty());
  }
}

TEST_F(ViewChangeTest, LeaderReproposesPreparedValue) {
  // Replica 2 becomes leader of view 2 and receives NewLeader messages:
  // one reports "locked" prepared in view 1; it must re-propose "locked".
  auto leader = bed_.make_replica(2);
  leader->start();
  force_view(*leader, 2);
  bed_.outbox.clear();

  const Bytes locked = to_bytes("locked");
  leader->on_message(
      4, tag_byte(MsgTag::kNewLeader),
      bed_.make_new_leader(2, 4, 1, locked, bed_.make_cert(1, locked, 4, 1))
          .to_bytes());
  for (ReplicaId s = 5; s <= 9; ++s) {
    leader->on_message(s, tag_byte(MsgTag::kNewLeader),
                       bed_.make_new_leader(2, s).to_bytes());
  }
  // 6 distinct NewLeader senders reached det quorum: Propose must be out.
  bool proposed = false;
  for (const auto& sent : bed_.outbox) {
    if (sent.tag != tag_byte(MsgTag::kPropose)) continue;
    const auto msg = ProposeMsg::from_bytes(sent.payload);
    EXPECT_EQ(msg.proposal.view, 2U);
    EXPECT_EQ(msg.proposal.value, locked);
    EXPECT_GE(msg.justification.size(), 6U);
    proposed = true;
  }
  EXPECT_TRUE(proposed);
}

TEST_F(ViewChangeTest, LeaderUsesOwnValueWhenNothingPrepared) {
  auto leader = bed_.make_replica(2, to_bytes("leaders-own"));
  leader->start();
  force_view(*leader, 2);
  bed_.outbox.clear();
  for (ReplicaId s = 4; s <= 9; ++s) {
    leader->on_message(s, tag_byte(MsgTag::kNewLeader),
                       bed_.make_new_leader(2, s).to_bytes());
  }
  bool proposed = false;
  for (const auto& sent : bed_.outbox) {
    if (sent.tag != tag_byte(MsgTag::kPropose)) continue;
    const auto msg = ProposeMsg::from_bytes(sent.payload);
    EXPECT_EQ(msg.proposal.value, to_bytes("leaders-own"));
    proposed = true;
  }
  EXPECT_TRUE(proposed);
}

TEST_F(ViewChangeTest, LeaderIgnoresInsufficientNewLeaders) {
  auto leader = bed_.make_replica(2);
  leader->start();
  force_view(*leader, 2);
  bed_.outbox.clear();
  for (ReplicaId s = 4; s <= 8; ++s) {  // only 5 < det quorum 6
    leader->on_message(s, tag_byte(MsgTag::kNewLeader),
                       bed_.make_new_leader(2, s).to_bytes());
  }
  for (const auto& sent : bed_.outbox) {
    EXPECT_NE(sent.tag, tag_byte(MsgTag::kPropose));
  }
}

TEST_F(ViewChangeTest, LeaderRejectsForgedNewLeaderCert) {
  auto leader = bed_.make_replica(2);
  leader->start();
  force_view(*leader, 2);
  bed_.outbox.clear();

  // Byzantine replica 4 claims "evil" was prepared but its certificate
  // carries mismatched prepares (for a different value).
  auto bogus_cert = bed_.make_cert(1, to_bytes("other"), 4, 1);
  leader->on_message(4, tag_byte(MsgTag::kNewLeader),
                     bed_.make_new_leader(2, 4, 1, to_bytes("evil"),
                                          bogus_cert)
                         .to_bytes());
  for (ReplicaId s = 5; s <= 9; ++s) {
    leader->on_message(s, tag_byte(MsgTag::kNewLeader),
                       bed_.make_new_leader(2, s).to_bytes());
  }
  // Only 5 valid messages: no proposal yet.
  for (const auto& sent : bed_.outbox) {
    EXPECT_NE(sent.tag, tag_byte(MsgTag::kPropose));
  }
}

TEST_F(ViewChangeTest, FollowerRejectsLeaderDroppingPreparedValue) {
  // A Byzantine view-2 leader proposes its own value even though the
  // justification shows "locked" was prepared: safeProposal must fail at
  // every correct replica.
  auto replica = bed_.make_replica(5);
  replica->start();
  force_view(*replica, 2);

  const Bytes locked = to_bytes("locked");
  std::vector<NewLeaderMsg> m_set;
  m_set.push_back(
      bed_.make_new_leader(2, 4, 1, locked, bed_.make_cert(1, locked, 4, 1)));
  for (ReplicaId s = 5; s <= 9; ++s) {
    m_set.push_back(bed_.make_new_leader(2, s));
  }
  const auto bad = bed_.make_propose(2, to_bytes("evil"), 2, m_set);
  EXPECT_FALSE(replica->safe_proposal(bad));
  replica->on_message(2, tag_byte(MsgTag::kPropose), bad.to_bytes());
  EXPECT_FALSE(replica->voted());
}

TEST_F(ViewChangeTest, HigherPreparedViewWins) {
  // Value "new" prepared in view 2 dominates "old" prepared in view 1
  // regardless of counts (vmax rule).
  auto replica = bed_.make_replica(5);
  replica->start();
  force_view(*replica, 3);

  const Bytes old_val = to_bytes("old"), new_val = to_bytes("new");
  std::vector<NewLeaderMsg> m_set;
  m_set.push_back(bed_.make_new_leader(3, 4, 1, old_val,
                                       bed_.make_cert(1, old_val, 4, 1)));
  m_set.push_back(bed_.make_new_leader(3, 6, 1, old_val,
                                       bed_.make_cert(1, old_val, 6, 1)));
  m_set.push_back(bed_.make_new_leader(3, 7, 2, new_val,
                                       bed_.make_cert(2, new_val, 7, 2)));
  for (ReplicaId s : {8, 9, 1}) {
    m_set.push_back(bed_.make_new_leader(3, static_cast<ReplicaId>(s)));
  }
  EXPECT_TRUE(
      replica->safe_proposal(bed_.make_propose(3, new_val, 3, m_set)));
  EXPECT_FALSE(
      replica->safe_proposal(bed_.make_propose(3, old_val, 3, m_set)));
}

TEST_F(ViewChangeTest, StaleViewMessagesIgnoredAfterViewChange) {
  auto replica = bed_.make_replica(3);
  replica->start();
  force_view(*replica, 2);
  ASSERT_EQ(replica->current_view(), 2U);
  // A view-1 proposal arriving late must not make the replica vote.
  replica->on_message(1, tag_byte(MsgTag::kPropose),
                      bed_.make_propose(1, to_bytes("late"), 1).to_bytes());
  EXPECT_FALSE(replica->voted());
}

// Full-cluster check of the Theorem 8 scenario: decide in view 1 at some
// replicas, force a view change, verify the later view re-decides the same
// value.
TEST(ViewChangeCluster, DecidedValuePersistsAcrossViews) {
  using namespace probft::sim;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    ClusterConfig cfg;
    cfg.protocol = Protocol::kProbft;
    cfg.n = 12;
    cfg.f = 0;
    cfg.l = 1.5;
    cfg.seed = seed;
    // Aggressive timeouts + slow network => decisions and view changes
    // interleave; agreement must survive.
    cfg.sync.base_timeout = 12'000;
    cfg.latency.min_delay = 1'000;
    cfg.latency.max_delay_post = 9'000;
    Cluster cluster(cfg);
    cluster.start();
    cluster.run_to_completion(/*deadline=*/120'000'000);
    EXPECT_TRUE(cluster.agreement_ok()) << "seed " << seed;
  }
}

// SMR slot instances have no synchronizer: the group's synchronizer moves
// every open slot's instance to the view it enters (Replica::move_to), and
// new slots start there. A slot whose value x is already prepared in view
// 1 at some replicas must still decide x when the group moves them to
// view 2 and other replicas join with fresh instances started in view 2:
// the NewLeader justification carries the lock to the new leader.
TEST(ViewChangeFreshStart, PreparedValueSurvivesFreshInstancesInViewTwo) {
  TestBed bed(4, 1, 1.7, 1.5);  // q = 3, samples cover all 4, det quorum 3
  net::Simulator sim;
  net::LatencyConfig latency;
  latency.min_delay = 500;
  latency.max_delay_post = 2'000;
  net::Network network(sim, 4, /*seed=*/7, latency);
  std::vector<std::unique_ptr<Replica>> replicas(5);
  std::vector<std::optional<Bytes>> decided(5);
  const auto build = [&](ReplicaId id) {
    ReplicaConfig rc;
    rc.id = id;
    rc.n = 4;
    rc.f = 1;
    rc.l = 1.5;
    rc.my_value = to_bytes("own-" + std::to_string(id));
    rc.suite = &bed.suite();
    rc.secret_key = bed.secret(id);
    rc.public_keys = bed.public_keys();
    ProtocolHost host = sim::transport_host(
        network, id, [&sim](Duration d, std::function<void()> fn) {
          sim.schedule_after(d, std::move(fn));
        });
    host.on_decide = [&decided, id](View, const Bytes& value) {
      decided[id] = value;
    };
    replicas[id] = std::make_unique<Replica>(std::move(rc), std::nullopt, host);
    network.register_handler(
        id, [&replicas, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
          if (replicas[id]) replicas[id]->on_message(from, tag, m);
        });
  };

  // View 1 without replica 4 and with every Commit dropped: replicas 1-3
  // prepare the view-1 leader's value but nobody decides.
  network.set_filter([](ReplicaId, ReplicaId, std::uint8_t tag) {
    return tag == tag_byte(MsgTag::kCommit);
  });
  for (ReplicaId id = 1; id <= 3; ++id) {
    build(id);
    replicas[id]->move_to(1);
  }
  sim.run_until(200'000);
  const Bytes x = to_bytes("own-1");
  for (ReplicaId id = 2; id <= 3; ++id) {
    ASSERT_EQ(replicas[id]->prepared_view(), 1U) << "replica " << id;
    ASSERT_EQ(replicas[id]->prepared_value(), x) << "replica " << id;
    ASSERT_FALSE(decided[id].has_value());
  }

  // The group enters view 2, whose leader is replica 2: replicas 2 and 3
  // move their prepared instances there, replica 1 comes back with a
  // fresh instance and replica 4 joins, both started straight in view 2.
  network.clear_filter();
  build(1);
  build(4);
  for (ReplicaId id = 1; id <= 4; ++id) replicas[id]->move_to(2);
  EXPECT_EQ(replicas[1]->current_view(), 2U);
  EXPECT_EQ(replicas[2]->current_view(), 2U);
  while (sim.now() < 5'000'000) {
    bool all = true;
    for (ReplicaId id = 1; id <= 4; ++id) all = all && decided[id].has_value();
    if (all || !sim.step()) break;
  }
  for (ReplicaId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(decided[id].has_value()) << "replica " << id;
    EXPECT_EQ(*decided[id], x) << "replica " << id;
    EXPECT_EQ(replicas[id]->decided_view(), 2U) << "replica " << id;
  }
}

}  // namespace
}  // namespace probft::core
