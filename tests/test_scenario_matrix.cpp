// Cross-protocol scenario conformance matrix.
//
// Sweeps protocols × faults × seeds through the declarative scenario
// harness and asserts the paper's correctness claims uniformly:
//   - agreement: correct replicas never decide two different values
//     (always asserted, including under Byzantine attacks);
//   - termination: every correct replica decides before the deadline
//     (asserted for every benign-fault combination).
#include <gtest/gtest.h>

#include <utility>

#include "sim/scenario.hpp"

namespace probft::sim {
namespace {

ScenarioSpec matrix_base() { return conformance_base_spec(); }

TEST(ScenarioMatrix, BenignFaultsTerminateWithAgreement) {
  const std::vector<Fault> faults = {
      Fault::kNone,          Fault::kSilentLeader,
      Fault::kSilentFollowers, Fault::kPartitionUntilGst,
      Fault::kChurnRecovery, Fault::kAsymmetricPartition,
      Fault::kReorderAdversary};
  const std::vector<std::uint64_t> seeds = {1, 2};

  const auto specs = expand_matrix(all_protocols(), faults, seeds, matrix_base());
  ASSERT_EQ(specs.size(), 21U);  // 3 protocols × 7 applicable faults

  std::size_t combinations = 0;
  for (const auto& result : run_matrix(specs)) {
    EXPECT_TRUE(result.spec.expect_termination)
        << scenario_name(result.spec);
    for (const auto& outcome : result.outcomes) {
      ++combinations;
      EXPECT_TRUE(outcome.agreement)
          << scenario_name(result.spec) << " seed " << outcome.seed;
      EXPECT_TRUE(outcome.terminated)
          << scenario_name(result.spec) << " seed " << outcome.seed << ": "
          << outcome.decided << "/" << outcome.correct << " decided";
      EXPECT_EQ(outcome.decided, outcome.correct)
          << scenario_name(result.spec) << " seed " << outcome.seed;
    }
  }
  // The acceptance bar for this matrix: ≥ 18 (protocol, fault, seed)
  // combinations asserting both invariants.
  EXPECT_GE(combinations, 18U);
}

TEST(ScenarioMatrix, ByzantineAttacksNeverViolateAgreement) {
  const std::vector<Fault> faults = {Fault::kEquivocate, Fault::kFlood};
  const std::vector<std::uint64_t> seeds = {1, 2, 3};

  const auto specs = expand_matrix(all_protocols(), faults, seeds, matrix_base());
  // Equivocation applies to ProBFT + PBFT; flooding is ProBFT-only.
  ASSERT_EQ(specs.size(), 3U);

  for (const auto& result : run_matrix(specs)) {
    EXPECT_FALSE(result.spec.expect_termination)
        << scenario_name(result.spec);
    for (const auto& outcome : result.outcomes) {
      EXPECT_TRUE(outcome.agreement)
          << scenario_name(result.spec) << " seed " << outcome.seed;
    }
  }
}

TEST(ScenarioMatrix, AsynchronyPresetsStillTerminate) {
  // Partial synchrony (and duplicate deliveries) delay but never prevent
  // liveness once GST passes.
  ScenarioSpec spec = matrix_base();
  for (const LatencyModel model :
       {LatencyModel::kPartialSynchrony, LatencyModel::kLossyDuplicating}) {
    for (const Protocol protocol : all_protocols()) {
      spec.protocol = protocol;
      spec.latency = model;
      const auto outcome = run_scenario(spec, /*seed=*/7);
      EXPECT_TRUE(outcome.terminated)
          << scenario_name(spec) << ": " << outcome.decided << "/"
          << outcome.correct;
      EXPECT_TRUE(outcome.agreement) << scenario_name(spec);
    }
  }
}

TEST(ScenarioMatrix, SmrWorkloadKeepsLogsIdenticalUnderFaults) {
  // The SMR workload dimension: a pipelined SmrReplica fleet driven
  // through a two-wave client workload (including a cross-replica retry)
  // must end with every correct replica executing the full workload and
  // prefix-consistent slot logs — under crash and churn faults at
  // minimum, plus the partition/reorder network faults.
  ScenarioSpec base = matrix_base();
  base.workload = Workload::kSmr;
  base.smr_commands = 10;
  base.smr.window = 4;
  base.smr.batch_max_commands = 4;
  const std::vector<Fault> faults = {
      Fault::kNone, Fault::kSilentFollowers, Fault::kChurnRecovery,
      Fault::kPartitionUntilGst, Fault::kReorderAdversary};
  const auto specs =
      expand_matrix({Protocol::kProbft}, faults, {1, 2}, base);
  ASSERT_EQ(specs.size(), 5U);
  for (const auto& result : run_matrix(specs)) {
    for (const auto& outcome : result.outcomes) {
      EXPECT_TRUE(outcome.agreement)
          << scenario_name(result.spec) << " seed " << outcome.seed << "\n"
          << outcome.transcript;
      EXPECT_TRUE(outcome.terminated)
          << scenario_name(result.spec) << " seed " << outcome.seed << ": "
          << outcome.decided << "/" << outcome.correct << "\n"
          << outcome.transcript;
    }
  }
}

TEST(ScenarioMatrix, SmrPartitionsTerminateWithDefaultOptions) {
  // Default SmrOptions: every view-1 wish sent during the partition is
  // dropped, so progress after it heals rests on the synchronizer
  // repeating its wish at each timeout.
  for (const auto& [n, f] : {std::pair<std::uint32_t, std::uint32_t>{4, 1},
                             std::pair<std::uint32_t, std::uint32_t>{7, 2}}) {
    ScenarioSpec base = matrix_base();
    base.workload = Workload::kSmr;
    base.n = n;
    base.f = f;
    const auto specs = expand_matrix(
        {Protocol::kProbft},
        {Fault::kPartitionUntilGst, Fault::kAsymmetricPartition}, {1, 2, 3},
        base);
    ASSERT_EQ(specs.size(), 2U);
    for (const auto& result : run_matrix(specs)) {
      for (const auto& outcome : result.outcomes) {
        EXPECT_TRUE(outcome.agreement && outcome.terminated)
            << scenario_name(result.spec) << " seed " << outcome.seed << ": "
            << outcome.decided << "/" << outcome.correct;
      }
    }
  }
}

TEST(ScenarioMatrix, SmrWorkloadIsSeedDeterministic) {
  ScenarioSpec spec = matrix_base();
  spec.workload = Workload::kSmr;
  spec.fault = Fault::kChurnRecovery;
  spec.smr_commands = 8;
  const auto a = run_scenario_smr(spec, /*seed=*/5);
  const auto b = run_scenario_smr(spec, /*seed=*/5);
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
}

// ---- Harness unit tests ----

TEST(ScenarioSpecTest, FaultApplicability) {
  ScenarioSpec spec = matrix_base();

  spec.fault = Fault::kEquivocate;
  spec.protocol = Protocol::kProbft;
  EXPECT_TRUE(fault_applicable(spec));
  spec.protocol = Protocol::kHotStuff;
  EXPECT_FALSE(fault_applicable(spec));

  spec.fault = Fault::kFlood;
  EXPECT_FALSE(fault_applicable(spec));
  spec.protocol = Protocol::kProbft;
  EXPECT_TRUE(fault_applicable(spec));

  // Crash faults need a fault budget.
  spec.fault = Fault::kSilentLeader;
  spec.f = 0;
  EXPECT_FALSE(fault_applicable(spec));
  spec.f = 1;
  EXPECT_TRUE(fault_applicable(spec));

  // The SMR workload narrows applicability to fleet-realizable faults.
  spec.workload = Workload::kSmr;
  spec.fault = Fault::kSilentFollowers;
  EXPECT_TRUE(fault_applicable(spec));
  spec.fault = Fault::kChurnRecovery;
  EXPECT_TRUE(fault_applicable(spec));
  spec.fault = Fault::kEquivocate;
  spec.protocol = Protocol::kProbft;
  EXPECT_FALSE(fault_applicable(spec));
  spec.fault = Fault::kAdaptiveLeader;
  EXPECT_FALSE(fault_applicable(spec));
  EXPECT_FALSE(smr_fault_supported(Fault::kFlood));

  // The SMR engine runs ProBFT only: no other protocol has an SMR run.
  for (const Workload workload : {Workload::kSmr, Workload::kSmrReads}) {
    spec.workload = workload;
    spec.fault = Fault::kNone;
    spec.protocol = Protocol::kProbft;
    EXPECT_TRUE(fault_applicable(spec));
    spec.protocol = Protocol::kPbft;
    EXPECT_FALSE(fault_applicable(spec));
    spec.protocol = Protocol::kHotStuff;
    EXPECT_FALSE(fault_applicable(spec));
  }
  spec.workload = Workload::kSingleShot;
  EXPECT_TRUE(fault_applicable(spec));
}

TEST(ScenarioSpecTest, MakeClusterConfigDerivesBehaviors) {
  ScenarioSpec spec = matrix_base();

  spec.fault = Fault::kSilentLeader;
  auto cfg = make_cluster_config(spec, 42);
  ASSERT_EQ(cfg.behaviors.size(), 16U);
  EXPECT_EQ(cfg.behaviors[0], Behavior::kSilent);
  EXPECT_EQ(cfg.behaviors[1], Behavior::kHonest);
  EXPECT_EQ(cfg.seed, 42U);

  spec.fault = Fault::kSilentFollowers;
  cfg = make_cluster_config(spec, 1);
  for (std::uint32_t i = 13; i < 16; ++i) {
    EXPECT_EQ(cfg.behaviors[i], Behavior::kSilent) << i;
  }
  EXPECT_EQ(cfg.behaviors[12], Behavior::kHonest);

  spec.fault = Fault::kEquivocate;
  cfg = make_cluster_config(spec, 1);
  EXPECT_EQ(cfg.behaviors[0], Behavior::kEquivocateLeader);
  EXPECT_EQ(cfg.behaviors[1], Behavior::kColludeFollower);
  EXPECT_EQ(cfg.behaviors[2], Behavior::kColludeFollower);
  EXPECT_EQ(cfg.behaviors[3], Behavior::kHonest);
  EXPECT_EQ(cfg.split, SplitStrategy::kOptimal);

  spec.fault = Fault::kPartitionUntilGst;
  cfg = make_cluster_config(spec, 1);
  EXPECT_GT(cfg.latency.gst, 0U);  // healing point forced for partitions
}

TEST(ScenarioSpecTest, NamesAndRoundTrips) {
  ScenarioSpec spec = matrix_base();
  spec.protocol = Protocol::kPbft;
  spec.fault = Fault::kSilentFollowers;
  spec.latency = LatencyModel::kPartialSynchrony;
  EXPECT_EQ(scenario_name(spec), "pbft/n16f3/silent-f/partial-synchrony");

  Protocol protocol{};
  EXPECT_TRUE(protocol_from_string("hotstuff", protocol));
  EXPECT_EQ(protocol, Protocol::kHotStuff);
  EXPECT_FALSE(protocol_from_string("raft", protocol));

  Fault fault{};
  EXPECT_TRUE(fault_from_string("equivocate", fault));
  EXPECT_EQ(fault, Fault::kEquivocate);
  EXPECT_FALSE(fault_from_string("unknown", fault));

  spec.workload = Workload::kSmr;
  EXPECT_EQ(scenario_name(spec), "pbft/n16f3/silent-f/partial-synchrony/smr");
  Workload workload{};
  EXPECT_TRUE(workload_from_string("smr", workload));
  EXPECT_EQ(workload, Workload::kSmr);
  EXPECT_FALSE(workload_from_string("raft", workload));
}

TEST(ScenarioSpecTest, ExpandMatrixSkipsInapplicable) {
  const auto specs = expand_matrix(
      all_protocols(),
      {Fault::kNone, Fault::kEquivocate, Fault::kFlood},
      {1}, matrix_base());
  // kNone everywhere (3) + equivocate (probft, pbft) + flood (probft).
  ASSERT_EQ(specs.size(), 6U);
  for (const auto& spec : specs) {
    EXPECT_TRUE(fault_applicable(spec)) << scenario_name(spec);
  }
}

}  // namespace
}  // namespace probft::sim
