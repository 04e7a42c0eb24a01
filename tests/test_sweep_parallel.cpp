// Parallel Monte-Carlo sweep engine (src/sim/sweep.hpp).
//
// The load-bearing property: the parallel runner must produce the SAME
// per-seed outcome as the serial run_scenario() path — bit-identical
// decision transcripts and message/byte counts — for any worker count.
// Plus: wall-clock-budget accounting stays consistent, and the JSON stats
// report carries the documented schema.
#include <gtest/gtest.h>

#include "sim/sweep.hpp"

namespace probft::sim {
namespace {

std::vector<ScenarioSpec> small_matrix() {
  ScenarioSpec base = conformance_base_spec();
  base.n = 8;
  base.f = 1;
  const std::vector<Fault> faults = {Fault::kNone, Fault::kSilentLeader,
                                     Fault::kChurnRecovery,
                                     Fault::kReorderAdversary};
  return expand_matrix(all_protocols(), faults, {1, 2, 3}, base);
}

TEST(SweepParallel, ParallelMatchesSerialPerSeed) {
  const auto specs = small_matrix();
  ASSERT_FALSE(specs.empty());

  SweepConfig config;
  config.jobs = 4;
  const SweepReport report = run_sweep(specs, config);
  ASSERT_EQ(report.stats.size(), specs.size());
  EXPECT_EQ(report.items_run, report.items_total);
  EXPECT_EQ(report.items_skipped, 0U);

  for (std::size_t s = 0; s < specs.size(); ++s) {
    const SpecStats& stats = report.stats[s];
    ASSERT_EQ(stats.outcomes.size(), specs[s].seeds.size())
        << scenario_name(specs[s]);
    for (std::size_t i = 0; i < specs[s].seeds.size(); ++i) {
      const ScenarioOutcome serial =
          run_scenario(specs[s], specs[s].seeds[i]);
      const ScenarioOutcome& parallel = stats.outcomes[i];
      EXPECT_EQ(parallel.seed, serial.seed);
      EXPECT_EQ(parallel.transcript, serial.transcript)
          << scenario_name(specs[s]) << " seed " << serial.seed;
      EXPECT_EQ(parallel.messages, serial.messages);
      EXPECT_EQ(parallel.bytes, serial.bytes);
      EXPECT_EQ(parallel.events, serial.events);
      EXPECT_EQ(parallel.terminated, serial.terminated);
      EXPECT_EQ(parallel.agreement, serial.agreement);
    }
  }
}

TEST(SweepParallel, SingleJobMatchesManyJobs) {
  ScenarioSpec spec = conformance_base_spec();
  spec.n = 8;
  spec.f = 1;
  spec.seeds = {5, 6, 7, 8};

  SweepConfig serial_cfg;
  serial_cfg.jobs = 1;
  SweepConfig parallel_cfg;
  parallel_cfg.jobs = 8;

  const SweepReport a = run_sweep({spec}, serial_cfg);
  const SweepReport b = run_sweep({spec}, parallel_cfg);
  ASSERT_EQ(a.stats.size(), 1U);
  ASSERT_EQ(b.stats.size(), 1U);
  ASSERT_EQ(a.stats[0].outcomes.size(), b.stats[0].outcomes.size());
  for (std::size_t i = 0; i < a.stats[0].outcomes.size(); ++i) {
    EXPECT_EQ(a.stats[0].outcomes[i].transcript,
              b.stats[0].outcomes[i].transcript);
  }
  EXPECT_EQ(a.stats[0].messages, b.stats[0].messages);
  EXPECT_EQ(a.stats[0].latency_p50, b.stats[0].latency_p50);
  EXPECT_EQ(a.stats[0].latency_max, b.stats[0].latency_max);
}

TEST(SweepParallel, AggregatesTerminationAndLatency) {
  ScenarioSpec spec = conformance_base_spec();
  spec.n = 8;
  spec.f = 1;
  spec.seeds = {1, 2, 3, 4, 5};

  const SweepReport report = run_sweep({spec}, SweepConfig{});
  ASSERT_EQ(report.stats.size(), 1U);
  const SpecStats& stats = report.stats[0];
  EXPECT_EQ(stats.runs, 5U);
  EXPECT_EQ(stats.terminated, 5U);
  EXPECT_DOUBLE_EQ(stats.termination_rate(), 1.0);
  EXPECT_EQ(stats.agreement_violations, 0U);
  EXPECT_GT(stats.messages, 0U);
  EXPECT_GT(stats.events, 0U);
  // Quantiles are drawn from the observed latencies, so they are ordered
  // and bracketed by the max.
  EXPECT_GT(stats.latency_p50, 0U);
  EXPECT_LE(stats.latency_p50, stats.latency_p90);
  EXPECT_LE(stats.latency_p90, stats.latency_p99);
  EXPECT_LE(stats.latency_p99, stats.latency_max);
  EXPECT_TRUE(report.all_agreement());
  EXPECT_TRUE(report.termination_expectations_met());
}

TEST(SweepParallel, BudgetAccountingStaysConsistent) {
  ScenarioSpec spec = conformance_base_spec();
  spec.n = 8;
  spec.f = 1;
  spec.seeds.assign(64, 0);
  for (std::size_t i = 0; i < spec.seeds.size(); ++i) spec.seeds[i] = i + 1;

  SweepConfig config;
  config.jobs = 2;
  config.budget_seconds = 1e-9;  // expires immediately: nothing scheduled
  const SweepReport report = run_sweep({spec}, config);
  EXPECT_EQ(report.items_total, 64U);
  EXPECT_EQ(report.items_run + report.items_skipped, report.items_total);
  EXPECT_EQ(report.stats[0].runs, report.items_run);
  EXPECT_EQ(report.stats[0].outcomes.size(), report.items_run);
  EXPECT_GT(report.budget_seconds, 0.0);
}

TEST(SweepParallel, ZeroBudgetMeansUnlimited) {
  ScenarioSpec spec = conformance_base_spec();
  spec.n = 8;
  spec.f = 1;
  spec.seeds = {1, 2};

  SweepConfig config;
  config.budget_seconds = 0.0;
  const SweepReport report = run_sweep({spec}, config);
  EXPECT_EQ(report.items_run, 2U);
  EXPECT_EQ(report.items_skipped, 0U);
}

TEST(SweepParallel, ZeroJobsResolvesToHardwareConcurrency) {
  ScenarioSpec spec = conformance_base_spec();
  spec.n = 8;
  spec.f = 1;
  spec.seeds = {1};

  SweepConfig config;
  config.jobs = 0;
  const SweepReport report = run_sweep({spec}, config);
  EXPECT_GE(report.jobs, 1U);
  EXPECT_EQ(report.items_run, 1U);
}

TEST(SweepParallel, JsonReportCarriesSchema) {
  ScenarioSpec spec = conformance_base_spec();
  spec.n = 8;
  spec.f = 1;
  spec.seeds = {1};

  const SweepReport report = run_sweep({spec}, SweepConfig{});
  const std::string json = to_json(report);
  for (const char* key :
       {"\"jobs\"", "\"budget_seconds\"", "\"wall_seconds\"", "\"items\"",
        "\"specs\"", "\"name\"", "\"termination_rate\"",
        "\"agreement_violations\"", "\"latency_us\"", "\"p50\"", "\"p99\"",
        "\"events\"", "\"expect_termination\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("probft/n8f1/happy/synchronous"), std::string::npos);
}

}  // namespace
}  // namespace probft::sim
