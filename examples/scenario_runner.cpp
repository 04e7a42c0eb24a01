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
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

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

/// Strict full-string numeric parses: trailing garbage ("16abc") and
/// negative values must fail, not silently run the wrong experiment.
std::uint64_t parse_u64(const std::string& text) {
  // Leading whitespace would let stoull skip to a sign and wrap negatives.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    throw std::invalid_argument(text);
  }
  std::size_t consumed = 0;
  const std::uint64_t value = std::stoull(text, &consumed);
  if (consumed != text.size()) throw std::invalid_argument(text);
  return value;
}

/// The o/l factors must be positive, finite and sane — NaN or a negative
/// factor would silently run a nonsense experiment.
double parse_factor(const std::string& text) {
  std::size_t consumed = 0;
  const double value = std::stod(text, &consumed);
  if (consumed != text.size() || !std::isfinite(value) || value <= 0.0 ||
      value > 100.0) {
    throw std::invalid_argument(text);
  }
  return value;
}

/// Non-negative seconds (fractions allowed); 0 disables the budget.
double parse_seconds(const std::string& text) {
  std::size_t consumed = 0;
  const double value = std::stod(text, &consumed);
  if (consumed != text.size() || !std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(text);
  }
  return value;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    items.push_back(csv.substr(pos, comma - pos));  // npos clamps
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

std::vector<std::uint64_t> parse_seeds(const std::string& csv) {
  std::vector<std::uint64_t> seeds;
  for (const auto& item : split_csv(csv)) seeds.push_back(parse_u64(item));
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
      for (const auto& name : split_csv(value)) {
        sim::Protocol protocol{};
        if (!sim::protocol_from_string(name, protocol)) return false;
        opt.protocols.push_back(protocol);
      }
    } else if (key == "--faults") {
      for (const auto& name : split_csv(value)) {
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
      const std::uint64_t n = parse_u64(value);
      if (n < 1 || n > 1'000'000) return false;
      opt.spec.n = static_cast<std::uint32_t>(n);
    } else if (key == "--f") {
      const std::uint64_t f = parse_u64(value);
      if (f > 1'000'000) return false;
      opt.spec.f = static_cast<std::uint32_t>(f);
    } else if (key == "--o") {
      opt.spec.o = parse_factor(value);
    } else if (key == "--l") {
      opt.spec.l = parse_factor(value);
    } else if (key == "--seed" || key == "--seeds") {
      opt.spec.seeds = parse_seeds(value);
      if (opt.spec.seeds.empty()) return false;
    } else if (key == "--deadline-ms") {
      const std::uint64_t ms = parse_u64(value);
      if (ms > std::numeric_limits<std::uint64_t>::max() / 1000) return false;
      opt.spec.deadline = ms * 1000;
    } else if (key == "--jobs") {
      const std::uint64_t jobs = parse_u64(value);
      if (jobs > 4096) return false;
      opt.sweep.jobs = static_cast<unsigned>(jobs);
    } else if (key == "--budget-seconds") {
      opt.sweep.budget_seconds = parse_seconds(value);
    } else if (key == "--json") {
      if (value.empty()) return false;
      opt.json_path = value;
    } else if (key == "--workload") {
      if (!sim::workload_from_string(value, opt.spec.workload)) return false;
    } else if (key == "--smr-commands") {
      const std::uint64_t commands = parse_u64(value);
      if (commands < 1 || commands > 100'000) return false;
      opt.spec.smr_commands = commands;
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

  bool safe = true;
  bool live = true;
  for (const auto& stats : report.stats) {
    for (const auto& outcome : stats.outcomes) {
      print_result(stats.spec, outcome);
      safe = safe && outcome.agreement;
      if (stats.spec.expect_termination) {
        live = live && outcome.terminated;
      }
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
