#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace probft::sim {

namespace {

struct WorkItem {
  std::size_t spec_idx = 0;
  std::size_t seed_idx = 0;
};

/// Seed-major order: round-robin across specs so a budget cut leaves every
/// spec with comparable coverage.
std::vector<WorkItem> build_items(const std::vector<ScenarioSpec>& specs) {
  std::size_t max_seeds = 0;
  for (const auto& spec : specs) {
    max_seeds = std::max(max_seeds, spec.seeds.size());
  }
  std::vector<WorkItem> items;
  for (std::size_t seed_idx = 0; seed_idx < max_seeds; ++seed_idx) {
    for (std::size_t spec_idx = 0; spec_idx < specs.size(); ++spec_idx) {
      if (seed_idx < specs[spec_idx].seeds.size()) {
        items.push_back(WorkItem{spec_idx, seed_idx});
      }
    }
  }
  return items;
}

TimePoint nearest_rank(const std::vector<TimePoint>& sorted, double q) {
  if (sorted.empty()) return 0;
  // Nearest-rank: the ceil(q·N)-th smallest value (1-based), so e.g. the
  // p99 of 100 samples is the 99th-smallest, not the maximum.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank > 0 ? rank - 1 : 0, sorted.size() - 1)];
}

void json_escape(std::ostringstream& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

std::string fmt_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace

bool SweepReport::all_agreement() const {
  return std::all_of(stats.begin(), stats.end(), [](const SpecStats& s) {
    return s.agreement_violations == 0;
  });
}

bool SweepReport::termination_expectations_met() const {
  return std::all_of(stats.begin(), stats.end(), [](const SpecStats& s) {
    return !s.spec.expect_termination || s.terminated == s.runs;
  });
}

SweepReport run_sweep(const std::vector<ScenarioSpec>& specs,
                      const SweepConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();

  SweepReport report;
  report.budget_seconds = config.budget_seconds;
  report.jobs = config.jobs != 0 ? config.jobs
                                 : std::max(1U, std::thread::hardware_concurrency());

  const std::vector<WorkItem> items = build_items(specs);
  report.items_total = items.size();

  // One pre-sized slot per item; each is written by exactly one worker
  // (slot i belongs to whichever worker claimed i off the atomic counter)
  // and read only after join, so no locking is needed anywhere in the
  // sweep — deliberately no Mutex/GUARDED_BY here: the thread-safety
  // capability layer (docs/STATIC_ANALYSIS.md) annotates shared mutable
  // state, and the sweep has none. The join is the only synchronization
  // point, and it is a full happens-before barrier.
  std::vector<ScenarioOutcome> slots(items.size());
  std::vector<std::uint8_t> done(items.size(), 0);
  std::atomic<std::size_t> next{0};

  const bool budgeted = config.budget_seconds > 0.0;
  auto out_of_budget = [&] {
    if (!budgeted) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count() >= config.budget_seconds;
  };

  auto worker = [&] {
    while (true) {
      if (out_of_budget()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items.size()) return;
      const WorkItem& item = items[i];
      const ScenarioSpec& spec = specs[item.spec_idx];
      slots[i] = run_scenario(spec, spec.seeds[item.seed_idx]);
      done[i] = 1;
    }
  };

  // Never spawn more workers than there are items; report the worker count
  // that actually ran so wall-clock numbers stay interpretable.
  const unsigned jobs =
      static_cast<unsigned>(std::min<std::size_t>(report.jobs,
                                                  std::max<std::size_t>(
                                                      items.size(), 1)));
  report.jobs = jobs;
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // ---- aggregate (single-threaded, deterministic spec-then-seed order) ----
  report.stats.resize(specs.size());
  std::vector<std::vector<std::size_t>> spec_items(specs.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    spec_items[items[i].spec_idx].push_back(i);
  }
  for (std::size_t s = 0; s < specs.size(); ++s) {
    SpecStats& stats = report.stats[s];
    stats.spec = specs[s];
    stats.seeds_scheduled = specs[s].seeds.size();
    std::vector<TimePoint> latencies;
    // spec_items[s] is already in seed order: build_items pushes items in
    // ascending seed_idx, and the grouping pass above preserves that.
    for (const std::size_t i : spec_items[s]) {
      if (!done[i]) continue;
      const ScenarioOutcome& outcome = slots[i];
      ++stats.runs;
      ++report.items_run;
      if (outcome.terminated) {
        ++stats.terminated;
        latencies.push_back(outcome.last_decision_at);
      }
      if (!outcome.agreement) ++stats.agreement_violations;
      stats.messages += outcome.messages;
      stats.bytes += outcome.bytes;
      stats.events += outcome.events;
      stats.outcomes.push_back(outcome);
    }
    std::sort(latencies.begin(), latencies.end());
    stats.latency_p50 = nearest_rank(latencies, 0.50);
    stats.latency_p90 = nearest_rank(latencies, 0.90);
    stats.latency_p99 = nearest_rank(latencies, 0.99);
    stats.latency_max = latencies.empty() ? 0 : latencies.back();
  }
  report.items_skipped = report.items_total - report.items_run;
  return report;
}

std::string to_json(const SweepReport& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"jobs\": " << report.jobs << ",\n"
      << "  \"budget_seconds\": " << fmt_double(report.budget_seconds)
      << ",\n"
      << "  \"wall_seconds\": " << fmt_double(report.wall_seconds) << ",\n"
      << "  \"items\": {\"total\": " << report.items_total
      << ", \"run\": " << report.items_run
      << ", \"skipped\": " << report.items_skipped << "},\n"
      << "  \"specs\": [";
  for (std::size_t s = 0; s < report.stats.size(); ++s) {
    const SpecStats& stats = report.stats[s];
    out << (s == 0 ? "\n" : ",\n") << "    {\"name\": \"";
    json_escape(out, scenario_name(stats.spec));
    out << "\", \"protocol\": \"" << to_string(stats.spec.protocol)
        << "\", \"fault\": \"" << to_string(stats.spec.fault)
        << "\", \"latency_model\": \"" << to_string(stats.spec.latency)
        << "\",\n     \"n\": " << stats.spec.n
        << ", \"f\": " << stats.spec.f
        << ", \"o\": " << fmt_double(stats.spec.o)
        << ", \"l\": " << fmt_double(stats.spec.l)
        << ", \"expect_termination\": "
        << (stats.spec.expect_termination ? "true" : "false")
        << ",\n     \"seeds_scheduled\": " << stats.seeds_scheduled
        << ", \"runs\": " << stats.runs
        << ", \"terminated\": " << stats.terminated
        << ", \"termination_rate\": " << fmt_double(stats.termination_rate())
        << ", \"agreement_violations\": " << stats.agreement_violations
        << ",\n     \"messages\": " << stats.messages
        << ", \"bytes\": " << stats.bytes
        << ", \"events\": " << stats.events
        << ",\n     \"latency_us\": {\"p50\": " << stats.latency_p50
        << ", \"p90\": " << stats.latency_p90
        << ", \"p99\": " << stats.latency_p99
        << ", \"max\": " << stats.latency_max << "}}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace probft::sim
