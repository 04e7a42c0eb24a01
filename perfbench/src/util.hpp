// Small shared helpers for the wall-clock benchmark: the monotonic clock,
// a seeded generator, the interrupt flag, and the latency summary every
// timing metric goes through.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds. Every timestamp in the benchmark —
/// the generator's and the traced replicas' — comes from this one clock,
/// so spans taken on different threads are directly comparable.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::int64_t kMs = 1'000'000;
inline constexpr std::int64_t kSec = 1'000'000'000;

inline double to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Set by SIGINT/SIGTERM; every wait loop checks it and unwinds, so the
/// cluster destructors still stop and reap their node processes.
inline std::atomic<bool> g_interrupted{false};

inline void check_interrupted() {
  if (g_interrupted.load(std::memory_order_relaxed)) {
    throw std::runtime_error("interrupted");
  }
}

/// splitmix64: the only randomness in the benchmark, seeded from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// 1-based nearest rank of quantile q in an n-sample set. The epsilon
/// keeps binary rounding (0.999 * 10000 = 9990.000000000002) off the
/// next rank.
inline std::size_t nearest_rank(double q, std::size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 1 : std::min(n, static_cast<std::size_t>(rank));
}

/// Nearest-rank quantile of an ascending vector (q in [0, 1]).
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(q, sorted.size()) - 1];
}

/// The highest percentile of {50, 90, 99, 99.9, 99.99} that still has at
/// least 10 samples beyond it in an n-sample set (50 when none does).
inline double supported_percentile(std::size_t n) {
  double best = 50.0;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    if (n >= nearest_rank(p / 100.0, n) + 10) best = p;
  }
  return best;
}

/// A timing as the median plus the tail the sample supports.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;        // nearest-rank p99 (see tail_pct for support)
  double tail_pct = 50.0;  // highest percentile with >= 10 samples beyond
  double tail = 0.0;       // value at tail_pct
};

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = quantile_sorted(values, 0.50);
  s.p99 = quantile_sorted(values, 0.99);
  s.tail_pct = supported_percentile(values.size());
  s.tail = quantile_sorted(values, s.tail_pct / 100.0);
  return s;
}

/// Self-check of the percentile helper on fixed inputs; returns an empty
/// string when it holds, else what failed.
inline std::string check_percentile_helper() {
  const auto ramp = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
    return v;
  };
  struct Case {
    std::size_t n;
    double pct;
    double tail;
  };
  // n = 1000: p99 is rank 990, leaving exactly 10 samples beyond it.
  // n = 999:  rank 990 leaves 9, so the tail falls back to p90 (rank 900).
  const Case cases[] = {{19, 50.0, 10.0},    {20, 50.0, 10.0},
                        {100, 90.0, 90.0},   {999, 90.0, 900.0},
                        {1000, 99.0, 990.0}, {10000, 99.9, 9990.0}};
  for (const Case& c : cases) {
    const Summary s = summarize(ramp(c.n));
    if (s.n != c.n || s.tail_pct != c.pct || s.tail != c.tail) {
      return "percentile helper: n=" + std::to_string(c.n) + " gave p" +
             std::to_string(s.tail_pct) + "=" + std::to_string(s.tail);
    }
  }
  return {};
}

}  // namespace perfbench
