// Scenario runner: a small CLI over the declarative scenario harness
// (src/sim/scenario.hpp) and the parallel Monte-Carlo sweep engine
// (src/sim/sweep.hpp).
//
//   $ ./examples/scenario_runner --protocol probft --n 64 --f 10
//         --o 1.7 --l 2.0 --seeds 1,2,3 --fault silent-leader
//   $ ./examples/scenario_runner --matrix --jobs 8 --budget-seconds 60
//         --n 500 --f 50 --seeds 1,2,3,4 --json sweep.json
//
// Faults:    happy | silent-leader | silent-f | equivocate | flood |
//            partition | churn | asym-partition | reorder
// Latency:   synchronous | partial-synchrony | lossy-duplicating
//
// `--matrix` ignores --protocol/--fault and sweeps every applicable
// (protocol, fault) pair instead — the same cross-product the conformance
// test asserts on. `--protocols` / `--faults` narrow the matrix to a
// comma-separated subset (e.g. `--protocols probft` for large-n sweeps
// where the O(n²)-message baselines are too slow).
//
// All modes run on the sweep engine: `--jobs N` shards (spec × seed) work
// items across N worker threads (0 = all cores), `--budget-seconds S`
// stops scheduling new seeds once S wall-clock seconds elapsed (completed
// runs are reported either way), and `--json FILE` writes the aggregate
// stats report. Per-run RESULT lines print in deterministic (spec, seed)
// order after the sweep finishes, so output is stable under any --jobs.
//
// Every run is simulated. Real sockets are exercised by real probft_node
// processes: scripts/run_tcp_cluster.sh.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace probft;

struct Options {
  sim::ScenarioSpec spec = sim::conformance_base_spec();
  sim::SweepConfig sweep;
  bool matrix = false;
  std::vector<sim::Protocol> protocols;  // empty = all (matrix mode)
  std::vector<sim::Fault> faults;        // empty = all (matrix mode)
  std::string json_path;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: scenario_runner [--protocol probft|pbft|hotstuff]\n"
      "                       [--n N] [--f F] [--o O] [--l L]\n"
      "                       [--seeds S1,S2,...] [--deadline-ms MS]\n"
      "                       [--fault happy|silent-leader|silent-f|"
      "equivocate|flood|\n"
      "                                partition|churn|asym-partition|"
      "reorder]\n"
      "                       [--latency synchronous|partial-synchrony|"
      "lossy-duplicating]\n"
      "                       [--matrix] [--protocols P1,P2] "
      "[--faults F1,F2]\n"
      "                       [--jobs N] [--budget-seconds S] "
      "[--json FILE]\n"
      "                       [--workload single-shot|smr] "
      "[--smr-commands N]\n"
      "\n"
      "--workload smr drives a pipelined SMR fleet through a client\n"
      "workload instead of one single-shot decision; outcomes assert\n"
      "identical logs. SMR runs ProBFT only and supports the crash/churn/\n"
      "partition/reorder faults.\n");
}

std::vector<std::uint64_t> parse_seeds(const std::string& csv) {
  std::vector<std::uint64_t> seeds;
  for (const auto& item : cli::split_csv(csv)) {
    seeds.push_back(cli::parse_u64(item));
  }
  return seeds;
}

bool parse_args(int argc, char** argv, Options& opt);

/// Numeric flag values come from the command line; malformed ones must
/// produce the usage text, not std::terminate.
bool parse(int argc, char** argv, Options& opt) {
  try {
    return parse_args(argc, argv, opt);
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--matrix") {
      opt.matrix = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--protocol") {
      if (!sim::protocol_from_string(value, opt.spec.protocol)) return false;
    } else if (key == "--fault" || key == "--scenario") {
      if (!sim::fault_from_string(value, opt.spec.fault)) return false;
    } else if (key == "--protocols") {
      for (const auto& name : cli::split_csv(value)) {
        sim::Protocol protocol{};
        if (!sim::protocol_from_string(name, protocol)) return false;
        opt.protocols.push_back(protocol);
      }
    } else if (key == "--faults") {
      for (const auto& name : cli::split_csv(value)) {
        sim::Fault fault{};
        if (!sim::fault_from_string(name, fault)) return false;
        opt.faults.push_back(fault);
      }
    } else if (key == "--latency") {
      if (value == "synchronous") {
        opt.spec.latency = sim::LatencyModel::kSynchronous;
      } else if (value == "partial-synchrony") {
        opt.spec.latency = sim::LatencyModel::kPartialSynchrony;
      } else if (value == "lossy-duplicating") {
        opt.spec.latency = sim::LatencyModel::kLossyDuplicating;
      } else {
        return false;
      }
    } else if (key == "--n") {
      opt.spec.n = static_cast<std::uint32_t>(cli::parse_u64(value, 1'000'000));
      if (opt.spec.n < 1) return false;
    } else if (key == "--f") {
      opt.spec.f = static_cast<std::uint32_t>(cli::parse_u64(value, 1'000'000));
    } else if (key == "--o") {
      opt.spec.o = cli::parse_factor(value);
    } else if (key == "--l") {
      opt.spec.l = cli::parse_factor(value);
    } else if (key == "--seed" || key == "--seeds") {
      opt.spec.seeds = parse_seeds(value);
      if (opt.spec.seeds.empty()) return false;
    } else if (key == "--deadline-ms") {
      constexpr std::uint64_t kMaxMs =
          std::numeric_limits<std::uint64_t>::max() / 1000;
      opt.spec.deadline = cli::parse_u64(value, kMaxMs) * 1000;
    } else if (key == "--jobs") {
      opt.sweep.jobs = static_cast<unsigned>(cli::parse_u64(value, 4096));
    } else if (key == "--budget-seconds") {
      opt.sweep.budget_seconds = cli::parse_double(value);
      if (opt.sweep.budget_seconds < 0.0) return false;  // 0 = no budget
    } else if (key == "--json") {
      if (value.empty()) return false;
      opt.json_path = value;
    } else if (key == "--workload") {
      if (!sim::workload_from_string(value, opt.spec.workload)) return false;
    } else if (key == "--smr-commands") {
      opt.spec.smr_commands = cli::parse_u64(value, 100'000);
      if (opt.spec.smr_commands < 1) return false;
    } else {
      return false;
    }
  }
  return true;
}

void print_result(const sim::ScenarioSpec& spec,
                  const sim::ScenarioOutcome& outcome) {
  std::printf(
      "RESULT scenario=%s o=%.2f l=%.2f seed=%llu decided=%zu/%zu "
      "terminated=%d agreement=%d messages=%llu bytes=%llu events=%llu "
      "last_decision_us=%llu max_view=%llu\n",
      sim::scenario_name(spec).c_str(), spec.o, spec.l,
      static_cast<unsigned long long>(outcome.seed), outcome.decided,
      outcome.correct, outcome.terminated ? 1 : 0, outcome.agreement ? 1 : 0,
      static_cast<unsigned long long>(outcome.messages),
      static_cast<unsigned long long>(outcome.bytes),
      static_cast<unsigned long long>(outcome.events),
      static_cast<unsigned long long>(outcome.last_decision_at),
      static_cast<unsigned long long>(outcome.max_view));
}

void print_stats(const sim::SpecStats& stats) {
  std::printf(
      "STATS scenario=%s runs=%zu/%zu terminated=%zu "
      "termination_rate=%.3f agreement_violations=%zu "
      "latency_us_p50=%llu p90=%llu p99=%llu max=%llu events=%llu\n",
      sim::scenario_name(stats.spec).c_str(), stats.runs,
      stats.seeds_scheduled, stats.terminated, stats.termination_rate(),
      stats.agreement_violations,
      static_cast<unsigned long long>(stats.latency_p50),
      static_cast<unsigned long long>(stats.latency_p90),
      static_cast<unsigned long long>(stats.latency_p99),
      static_cast<unsigned long long>(stats.latency_max),
      static_cast<unsigned long long>(stats.events));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }

  // --protocols/--faults shape the matrix; accepting them in single-spec
  // mode would silently run a different configuration than requested.
  if (!opt.matrix && (!opt.protocols.empty() || !opt.faults.empty())) {
    std::fprintf(stderr, "--protocols/--faults require --matrix\n");
    usage();
    return 2;
  }
  auto not_probft = [](sim::Protocol p) { return p != sim::Protocol::kProbft; };
  if (opt.spec.workload != sim::Workload::kSingleShot &&
      (not_probft(opt.spec.protocol) ||
       std::any_of(opt.protocols.begin(), opt.protocols.end(), not_probft))) {
    std::fprintf(stderr, "--workload %s runs ProBFT only\n",
                 sim::to_string(opt.spec.workload));
    return 2;
  }

  std::vector<sim::ScenarioSpec> specs;
  if (opt.matrix) {
    const auto& protocols =
        opt.protocols.empty() ? sim::all_protocols() : opt.protocols;
    const auto& faults = opt.faults.empty() ? sim::all_faults() : opt.faults;
    specs = sim::expand_matrix(protocols, faults, opt.spec.seeds, opt.spec);
  } else {
    if (!sim::fault_applicable(opt.spec)) {
      std::fprintf(stderr, "fault %s not applicable to %s (need f >= 1?)\n",
                   sim::to_string(opt.spec.fault),
                   sim::to_string(opt.spec.protocol));
      return 2;
    }
    opt.spec.expect_termination =
        sim::fault_expects_termination(opt.spec.fault);
    specs.push_back(opt.spec);
  }

  const sim::SweepReport report = sim::run_sweep(specs, opt.sweep);

  for (const auto& stats : report.stats) {
    for (const auto& outcome : stats.outcomes) {
      print_result(stats.spec, outcome);
    }
  }
  for (const auto& stats : report.stats) {
    print_stats(stats);
  }
  std::printf(
      "SWEEP jobs=%u budget_seconds=%.3f wall_seconds=%.3f "
      "items=%zu/%zu skipped=%zu\n",
      report.jobs, report.budget_seconds, report.wall_seconds,
      report.items_run, report.items_total, report.items_skipped);

  if (!opt.json_path.empty()) {
    std::ofstream json(opt.json_path);
    if (!json) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 2;
    }
    json << sim::to_json(report);
    std::fprintf(stderr, "wrote %s\n", opt.json_path.c_str());
  }

  const bool safe = report.all_agreement();
  const bool live = report.termination_expectations_met();
  if (!safe) std::fprintf(stderr, "AGREEMENT VIOLATED\n");
  if (!live) std::fprintf(stderr, "termination expectation missed\n");
  // A sweep that completed nothing proves nothing — a too-tight budget
  // must not let CI go green with zero coverage.
  if (report.items_total > 0 && report.items_run == 0) {
    std::fprintf(stderr, "no runs completed within the budget\n");
    return 1;
  }
  return safe && live ? 0 : 1;
}
