// Parallel, wall-clock-budgeted Monte-Carlo sweep engine.
//
// A sweep shards the (spec × seed) cross-product across a pool of worker
// threads. Each work item is one fully independent simulation — its own
// Cluster, network, RNG streams and crypto suite, all derived from the
// (spec, seed) pair — so the parallel engine produces bit-identical
// per-seed outcomes to the serial run_scenario() path regardless of worker
// count or scheduling (tests/test_sweep_parallel.cpp pins this).
//
// Wall-clock budget: when `budget_seconds` elapses, workers stop CLAIMING
// new items (in-flight simulations finish), and the report records how many
// items ran vs. were skipped. Work items are ordered seed-major
// (round-robin across specs), so an exhausted budget still leaves every
// spec with roughly the same number of completed seeds instead of starving
// the specs at the tail of the list.
//
// Aggregation: per-spec termination rate, agreement violations, message /
// byte / simulator-event totals and decision-latency quantiles (virtual μs,
// nearest-rank over terminated runs), serializable as a JSON stats report —
// the artifact the nightly CI sweep uploads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace probft::sim {

struct SweepConfig {
  /// Worker threads; 0 resolves to std::thread::hardware_concurrency().
  unsigned jobs = 1;
  /// Wall-clock budget in seconds; 0 (or negative) means unlimited.
  double budget_seconds = 0.0;
};

/// Aggregate statistics for one spec over the runs that completed within
/// the budget.
struct SpecStats {
  ScenarioSpec spec;
  std::size_t seeds_scheduled = 0;  // spec.seeds.size()
  std::size_t runs = 0;             // completed before the budget expired
  std::size_t terminated = 0;
  std::size_t agreement_violations = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  /// Nearest-rank quantiles of the last correct decision time (virtual μs)
  /// over terminated runs; all 0 when nothing terminated.
  TimePoint latency_p50 = 0;
  TimePoint latency_p90 = 0;
  TimePoint latency_p99 = 0;
  TimePoint latency_max = 0;
  /// Per completed run, in seed order.
  std::vector<ScenarioOutcome> outcomes;

  [[nodiscard]] double termination_rate() const {
    return runs == 0 ? 0.0 : static_cast<double>(terminated) /
                                 static_cast<double>(runs);
  }
};

struct SweepReport {
  std::vector<SpecStats> stats;  // parallel to the input spec list
  unsigned jobs = 1;             // resolved worker count
  double budget_seconds = 0.0;
  double wall_seconds = 0.0;
  std::size_t items_total = 0;    // (spec, seed) work items submitted
  std::size_t items_run = 0;      // completed
  std::size_t items_skipped = 0;  // never scheduled: budget exhausted

  /// No completed run violated agreement.
  [[nodiscard]] bool all_agreement() const;
  /// Every completed run of a spec with expect_termination terminated.
  [[nodiscard]] bool termination_expectations_met() const;
};

/// Runs the sweep. Deterministic per (spec, seed) independent of `jobs`.
[[nodiscard]] SweepReport run_sweep(const std::vector<ScenarioSpec>& specs,
                                    const SweepConfig& config = {});

/// Serializes the aggregate report (not the per-run outcomes) as JSON; the
/// schema is documented in README.md ("Parallel Monte-Carlo sweeps").
[[nodiscard]] std::string to_json(const SweepReport& report);

}  // namespace probft::sim
