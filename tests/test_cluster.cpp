// Unit tests for the simulation harness itself (sim/cluster.hpp).
#include <gtest/gtest.h>

#include "sim/cluster.hpp"

namespace probft::sim {
namespace {

TEST(Cluster, RejectsZeroReplicas) {
  ClusterConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(Cluster cluster(cfg), std::invalid_argument);
}

TEST(Cluster, DefaultsToHonestBehaviors) {
  ClusterConfig cfg;
  cfg.n = 5;
  Cluster cluster(cfg);
  for (ReplicaId id = 1; id <= 5; ++id) {
    EXPECT_FALSE(cluster.is_byzantine(id));
  }
  EXPECT_EQ(cluster.correct_ids().size(), 5U);
}

TEST(Cluster, BehaviorsMarkByzantine) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.behaviors = {Behavior::kHonest, Behavior::kSilent, Behavior::kHonest,
                   Behavior::kFlood};
  Cluster cluster(cfg);
  EXPECT_FALSE(cluster.is_byzantine(1));
  EXPECT_TRUE(cluster.is_byzantine(2));
  EXPECT_FALSE(cluster.is_byzantine(3));
  EXPECT_TRUE(cluster.is_byzantine(4));
  EXPECT_EQ(cluster.correct_ids(), (std::vector<ReplicaId>{1, 3}));
}

TEST(Cluster, KeysAreDeterministicPerSeed) {
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 77;
  Cluster a(cfg);
  Cluster b(cfg);
  for (ReplicaId id = 1; id <= 3; ++id) {
    EXPECT_EQ(a.keys()[id].public_key, b.keys()[id].public_key);
  }
  cfg.seed = 78;
  Cluster c(cfg);
  EXPECT_NE(a.keys()[1].public_key, c.keys()[1].public_key);
}

TEST(Cluster, TypedAccessorsMatchProtocol) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kProbft;
  Cluster cluster(cfg);
  EXPECT_NE(cluster.probft(1), nullptr);
  EXPECT_EQ(cluster.pbft(1), nullptr);
  EXPECT_EQ(cluster.hotstuff(1), nullptr);

  cfg.protocol = Protocol::kPbft;
  Cluster pbft_cluster(cfg);
  EXPECT_EQ(pbft_cluster.probft(1), nullptr);
  EXPECT_NE(pbft_cluster.pbft(1), nullptr);
}

TEST(Cluster, ByzantineSlotsHaveNoTypedReplica) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.behaviors = {Behavior::kSilent, Behavior::kHonest, Behavior::kHonest,
                   Behavior::kHonest};
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.probft(1), nullptr);
  EXPECT_NE(cluster.probft(2), nullptr);
}

TEST(Cluster, DecisionsRecordTimeAndView) {
  ClusterConfig cfg;
  cfg.n = 4;
  Cluster cluster(cfg);
  cluster.start();
  ASSERT_TRUE(cluster.run_to_completion());
  ASSERT_EQ(cluster.decisions().size(), 4U);
  for (const auto& d : cluster.decisions()) {
    EXPECT_GE(d.view, 1U);
    EXPECT_GT(d.at, 0U);
    EXPECT_FALSE(d.value.empty());
  }
}

TEST(Cluster, AgreementOkOnEmptyDecisions) {
  ClusterConfig cfg;
  cfg.n = 4;
  Cluster cluster(cfg);
  EXPECT_TRUE(cluster.agreement_ok());  // vacuously
  EXPECT_FALSE(cluster.all_correct_decided());
  EXPECT_EQ(cluster.correct_decided_count(), 0U);
}

TEST(Cluster, ExternalSuiteIsUsed) {
  const auto suite = crypto::make_ed25519_suite();
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.suite = suite.get();
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.suite().name(), "ed25519");
  // Keys must be Ed25519-shaped (32-byte compressed points != secrets).
  EXPECT_EQ(cluster.keys()[1].public_key.size(), 32U);
  EXPECT_NE(cluster.keys()[1].public_key, cluster.keys()[1].secret_key);
}

TEST(Cluster, FullRunWithRealCrypto) {
  // Small cluster end-to-end on real Ed25519 + ECVRF: slower but must work
  // identically.
  const auto suite = crypto::make_ed25519_suite();
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 0;
  cfg.suite = suite.get();
  Cluster cluster(cfg);
  cluster.start();
  EXPECT_TRUE(cluster.run_to_completion());
  EXPECT_TRUE(cluster.agreement_ok());
}

TEST(Cluster, MaxEventsBoundsTheRun) {
  ClusterConfig cfg;
  cfg.n = 10;
  Cluster cluster(cfg);
  cluster.start();
  cluster.run_to_completion(/*deadline=*/120'000'000, /*max_events=*/5);
  EXPECT_FALSE(cluster.all_correct_decided());
}

TEST(AttackPlan, OptimalSplitsCorrectInHalves) {
  std::vector<bool> byz(11, false);
  byz[1] = byz[2] = true;  // replicas 1,2 Byzantine of n=10
  const auto plan = AttackPlan::make(SplitStrategy::kOptimal, 10, byz,
                                     to_bytes("A"), to_bytes("B"));
  int a = 0, b = 0, both = 0;
  for (ReplicaId id = 1; id <= 10; ++id) {
    switch (plan.side[id]) {
      case AttackPlan::Side::kA: ++a; break;
      case AttackPlan::Side::kB: ++b; break;
      case AttackPlan::Side::kBoth: ++both; break;
      case AttackPlan::Side::kNone: break;
    }
  }
  EXPECT_EQ(both, 2);  // the Byzantine pair
  EXPECT_EQ(a, 4);     // half of 8 correct
  EXPECT_EQ(b, 4);
}

TEST(AttackPlan, GeneralCaseLeavesSomeWithNothing) {
  std::vector<bool> byz(10, false);
  const auto plan = AttackPlan::make(SplitStrategy::kGeneralThreeWay, 9, byz,
                                     to_bytes("A"), to_bytes("B"));
  int none = 0;
  for (ReplicaId id = 1; id <= 9; ++id) {
    if (plan.side[id] == AttackPlan::Side::kNone) ++none;
  }
  EXPECT_GT(none, 0);  // Fig. 4a's Π0 is non-empty
}

}  // namespace
}  // namespace probft::sim
