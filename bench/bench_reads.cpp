// Linearizable read fast path (ISSUE 10 tentpole): served operations
// per simulated second as the read ratio grows, against the all-writes
// baseline — the "reads skip the ordered log" claim, measured.
//
// A sim::SmrFleet runs on the deterministic simulator in the
// slot-rate-bound regime (window 4, one command per slot, so ordering
// cost is per-operation, not amortized away by batching). The workload is `total` operations at a
// read ratio R: W = total·(1-R) writes from distinct clients preloaded
// at the view-1 leader, and total - W reads of the first written key
// submitted closed-loop at the leader once that key has executed.
// Writes pay the full ordering pipeline; reads are answered through
// SmrReplica::submit_read at the selected consistency — under a held
// lease a linearizable read never touches the ordered log.
//
// Reported per row (ratio × consistency): served operations per virtual
// second, speedup over the all-writes baseline, read latency quantiles,
// and fleet log agreement. The harness also pins the write path: the
// ratio-0 log digest must be bit-identical with reads enabled and
// disabled (lease traffic must never perturb slot contents — batches
// form from the submission queue in arrival order, so any divergence
// means the read plumbing leaked into ordering).
//
// --smoke runs the CI acceptance gate: linearizable reads at ratio 0.99
// must serve >= 5x the all-writes ops/sec with identical logs, zero
// stale reads and a stable write-path digest; exits nonzero otherwise.
//
// --emit-json=PATH writes BENCH_reads.json (the committed read-path
// baseline) instead of the tables.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "sim/smr_fleet.hpp"

namespace {

using namespace probft;

struct ReadRun {
  bool completed = false;
  bool agree = false;      // fleet log digests identical
  TimePoint all_done = 0;  // virtual µs until writes + reads all served
  double wall_ms = 0.0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_stale = 0;     // executed answer with the wrong value
  std::uint64_t reads_rejected = 0;  // kRejected replies (retried)
  std::uint64_t reads_failed = 0;    // gave up after the retry budget
  std::string digest;                // leader's chained log digest
  std::vector<TimePoint> read_latency;  // submit → answer, virtual µs
};

/// One fleet run at a fixed read ratio. Reads are a closed-loop chain at
/// the leader: each answered read issues the next, so the measured span
/// is the serving cost, not an arrival schedule. A rejected read retries
/// after 10 ms of virtual time (a handful of rejections is normal while
/// the first lease round completes), with a budget so a broken read
/// path terminates the run instead of hanging it.
ReadRun run_read_fleet(std::uint32_t n, std::uint32_t f, double ratio,
                       net::ReadConsistency consistency, std::uint64_t total,
                       std::uint64_t seed, bool serve_reads) {
  ReadRun run;
  run.reads = static_cast<std::uint64_t>(
      ratio * static_cast<double>(total) + 0.5);
  run.writes = total - run.reads;

  sim::SmrFleetConfig cfg;  // default latency: synchronous, 1–10 ms delays
  cfg.n = n;
  cfg.f = f;
  cfg.seed = seed;
  // Slot-rate-bound regime: ordering costs one slot
  // per write, so the read path's savings are visible per operation.
  cfg.smr.window = 4;
  cfg.smr.batch_max_commands = 1;
  cfg.smr.serve_reads = serve_reads;
  // Lease validity must be of the same order as the 100 ms sync timeout
  // (the defaults are wall-clock knobs); see src/sim/scenario.cpp.
  cfg.smr.lease_duration = 100'000;
  cfg.smr.lease_skew = 25'000;
  sim::SmrFleet fleet(std::move(cfg));
  net::Simulator& sim = fleet.sim();
  smr::SmrReplica& leader = fleet.node(1);

  // Distinct-client writes preloaded at the leader (one per slot).
  for (std::uint64_t i = 1; i <= run.writes; ++i) {
    (void)leader.submit_request(9000 + i, 1,
                                to_bytes("op-" + std::to_string(i)));
  }
  fleet.start();

  // The read chain: key and expected value are write 1's payload (a
  // payload with no '=' is both its own ReadView key and value).
  const Bytes read_key = to_bytes("op-1");
  std::uint64_t reads_done = 0;
  std::uint64_t sent_at = 0;
  std::uint32_t attempts = 0;
  constexpr std::uint32_t kMaxAttempts = 32;
  std::function<void()> issue_read;
  std::function<void(const smr::SmrReplica::ReadResult&)> on_answer;
  on_answer = [&](const smr::SmrReplica::ReadResult& r) {
    if (r.status == net::ReplyStatus::kExecuted) {
      if (r.value == read_key) {
        ++run.reads_ok;
        run.read_latency.push_back(sim.now() - sent_at);
      } else {
        ++run.reads_stale;
      }
      ++reads_done;
      issue_read();
      return;
    }
    ++run.reads_rejected;
    if (++attempts >= kMaxAttempts) {
      ++run.reads_failed;
      ++reads_done;
      issue_read();
      return;
    }
    sim.schedule_after(10'000, [&] {
      sent_at = sim.now();
      leader.submit_read(read_key, consistency, /*min_index=*/1, on_answer);
    });
  };
  issue_read = [&] {
    if (reads_done >= run.reads) return;
    attempts = 0;
    sent_at = sim.now();
    leader.submit_read(read_key, consistency, /*min_index=*/1, on_answer);
  };

  bool reads_started = run.reads == 0;
  const auto t0 = std::chrono::steady_clock::now();
  run.completed = fleet.run_until(
      [&] {
        if (!reads_started && leader.executed_commands() >= 1) {
          reads_started = true;
          issue_read();
        }
        return reads_started && reads_done >= run.reads &&
               fleet.all_executed(run.writes);
      },
      600'000'000);
  if (run.completed) run.all_done = sim.now();
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  run.agree = fleet.logs_identical();
  run.digest = leader.log_digest();
  return run;
}

double ops_per_vsec(const ReadRun& run, std::uint64_t total) {
  if (run.all_done == 0) return 0.0;
  return static_cast<double>(total) * 1e6 /
         static_cast<double>(run.all_done);
}

TimePoint quantile(std::vector<TimePoint> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[idx];
}

const char* name_of(net::ReadConsistency mode) {
  switch (mode) {
    case net::ReadConsistency::kLinearizable:
      return "linearizable";
    case net::ReadConsistency::kSequential:
      return "sequential";
    case net::ReadConsistency::kStaleOk:
      return "stale-ok";
  }
  return "?";
}

constexpr double kRatioSweep[] = {0.5, 0.9, 0.99};
constexpr net::ReadConsistency kModes[] = {
    net::ReadConsistency::kLinearizable,
    net::ReadConsistency::kSequential,
    net::ReadConsistency::kStaleOk,
};

std::uint32_t f_for(std::uint32_t n) { return n >= 32 ? 7 : 1; }

void print_table(std::uint32_t n, std::uint64_t total) {
  const std::uint32_t f = f_for(n);
  const ReadRun base =
      run_read_fleet(n, f, 0.0, net::ReadConsistency::kLinearizable, total,
                     /*seed=*/1, /*serve_reads=*/false);
  const ReadRun pin =
      run_read_fleet(n, f, 0.0, net::ReadConsistency::kLinearizable, total,
                     /*seed=*/1, /*serve_reads=*/true);
  const double baseline = ops_per_vsec(base, total);
  std::printf(
      "\n================================================================\n"
      "Read fast path — served operations per simulated second as the\n"
      "read ratio grows (n = %u, f = %u, %llu operations, seed 1;\n"
      "ratio 0 is the all-writes ordered-log baseline)\n"
      "================================================================\n",
      n, f, static_cast<unsigned long long>(total));
  std::printf("%-7s %-14s %-11s %-9s %-10s %-10s %-6s %s\n", "ratio",
              "consistency", "ops/vsec", "speedup", "rd-p50-us", "rd-p99-us",
              "rej", "agree");
  std::printf("%-7.2f %-14s %-11.0f %-9.2f %-10s %-10s %-6s %s\n", 0.0,
              "(writes only)", baseline, 1.0, "-", "-", "-",
              base.completed ? (base.agree ? "yes" : "NO") : "DNF");
  for (const double ratio : kRatioSweep) {
    for (const auto mode : kModes) {
      const ReadRun run = run_read_fleet(n, f, ratio, mode, total,
                                         /*seed=*/1, /*serve_reads=*/true);
      std::printf(
          "%-7.2f %-14s %-11.0f %-9.2f %-10llu %-10llu %-6llu %s\n", ratio,
          name_of(mode), ops_per_vsec(run, total),
          baseline > 0 ? ops_per_vsec(run, total) / baseline : 0.0,
          static_cast<unsigned long long>(quantile(run.read_latency, 0.5)),
          static_cast<unsigned long long>(quantile(run.read_latency, 0.99)),
          static_cast<unsigned long long>(run.reads_rejected),
          run.completed
              ? (run.agree && run.reads_stale == 0 ? "yes" : "NO")
              : "DNF");
    }
  }
  std::printf("\nwrite-path pin (ratio 0): reads on vs off slot logs %s\n",
              base.digest == pin.digest ? "bit-identical" : "DIFFER (BUG)");
}

/// CI acceptance gate: linearizable reads at ratio 0.99 must serve
/// >= bound_x times the all-writes baseline, stale-free, with identical
/// fleet logs and a write path digest-stable under serve_reads.
int run_smoke(std::uint32_t n, std::uint64_t total, double bound_x) {
  const std::uint32_t f = f_for(n);
  const ReadRun base =
      run_read_fleet(n, f, 0.0, net::ReadConsistency::kLinearizable, total,
                     /*seed=*/1, /*serve_reads=*/false);
  const ReadRun pin =
      run_read_fleet(n, f, 0.0, net::ReadConsistency::kLinearizable, total,
                     /*seed=*/1, /*serve_reads=*/true);
  const ReadRun fast =
      run_read_fleet(n, f, 0.99, net::ReadConsistency::kLinearizable, total,
                     /*seed=*/1, /*serve_reads=*/true);
  const double base_t = ops_per_vsec(base, total);
  const double fast_t = ops_per_vsec(fast, total);
  const double speedup = base_t > 0 ? fast_t / base_t : 0.0;
  std::printf("reads smoke: n=%u total=%llu writes=%lluus reads99=%lluus "
              "speedup=%.1fx bound=%.1fx stale=%llu failed=%llu "
              "digest_stable=%d agree=%d/%d/%d\n",
              n, static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(base.all_done),
              static_cast<unsigned long long>(fast.all_done), speedup,
              bound_x, static_cast<unsigned long long>(fast.reads_stale),
              static_cast<unsigned long long>(fast.reads_failed),
              base.digest == pin.digest ? 1 : 0, base.agree ? 1 : 0,
              pin.agree ? 1 : 0, fast.agree ? 1 : 0);
  if (!base.completed || !pin.completed || !fast.completed || !base.agree ||
      !pin.agree || !fast.agree) {
    std::fprintf(stderr, "reads smoke: BAD OUTCOME completed=%d/%d/%d\n",
                 base.completed, pin.completed, fast.completed);
    return 2;
  }
  if (base.digest != pin.digest) {
    std::fprintf(stderr, "reads smoke: serve_reads perturbed the write "
                         "path's slot log\n");
    return 2;
  }
  if (fast.reads_stale != 0 || fast.reads_failed != 0) {
    std::fprintf(stderr, "reads smoke: %llu stale / %llu failed reads\n",
                 static_cast<unsigned long long>(fast.reads_stale),
                 static_cast<unsigned long long>(fast.reads_failed));
    return 2;
  }
  if (speedup < bound_x) {
    std::fprintf(stderr, "reads smoke: speedup %.1fx below %.1fx\n", speedup,
                 bound_x);
    return 1;
  }
  return 0;
}

/// Machine-readable read-path baseline (BENCH_reads.json).
int emit_json(const std::string& path, std::uint64_t total,
              std::uint64_t total_large) {
  struct Fleet {
    std::uint32_t n;
    std::uint64_t ops;
  };
  const Fleet fleets[] = {{4, total}, {32, total_large}};
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "emit-json: cannot open %s\n", path.c_str());
    return 2;
  }
  bool ok = true;
  double gate_x = 0.0;  // n=4 linearizable @ 0.99 over all-writes
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"reads\",\n"
               "  \"fleets\": [\n");
  for (std::size_t fi = 0; fi < 2; ++fi) {
    const auto& fleet = fleets[fi];
    const std::uint32_t f = f_for(fleet.n);
    const ReadRun base = run_read_fleet(fleet.n, f, 0.0,
                                        net::ReadConsistency::kLinearizable,
                                        fleet.ops, 1, /*serve_reads=*/false);
    const ReadRun pin = run_read_fleet(fleet.n, f, 0.0,
                                       net::ReadConsistency::kLinearizable,
                                       fleet.ops, 1, /*serve_reads=*/true);
    const double base_t = ops_per_vsec(base, fleet.ops);
    ok = ok && base.completed && base.agree && pin.completed &&
         base.digest == pin.digest;
    std::fprintf(out,
                 "    {\"n\": %u, \"f\": %u, \"ops\": %llu,\n"
                 "     \"all_writes_ops_per_vsec\": %.0f,\n"
                 "     \"write_digest_stable_under_serve_reads\": %s,\n"
                 "     \"rows\": [\n",
                 fleet.n, f, static_cast<unsigned long long>(fleet.ops),
                 base_t, base.digest == pin.digest ? "true" : "false");
    bool first = true;
    for (const double ratio : kRatioSweep) {
      for (const auto mode : kModes) {
        const ReadRun run = run_read_fleet(fleet.n, f, ratio, mode,
                                           fleet.ops, 1,
                                           /*serve_reads=*/true);
        const double tput = ops_per_vsec(run, fleet.ops);
        const double speedup = base_t > 0 ? tput / base_t : 0.0;
        if (fleet.n == 4 && ratio == 0.99 &&
            mode == net::ReadConsistency::kLinearizable) {
          gate_x = speedup;
        }
        ok = ok && run.completed && run.agree && run.reads_stale == 0 &&
             run.reads_failed == 0;
        std::fprintf(
            out,
            "      %s{\"ratio\": %.2f, \"consistency\": \"%s\", "
            "\"ops_per_vsec\": %.0f, \"speedup_x\": %.2f, "
            "\"writes\": %llu, \"reads\": %llu, \"read_p50_us\": %llu, "
            "\"read_p99_us\": %llu, \"rejected\": %llu, \"stale\": %llu, "
            "\"agree\": %s}\n",
            first ? "" : ",", ratio, name_of(mode), tput, speedup,
            static_cast<unsigned long long>(run.writes),
            static_cast<unsigned long long>(run.reads),
            static_cast<unsigned long long>(quantile(run.read_latency, 0.5)),
            static_cast<unsigned long long>(
                quantile(run.read_latency, 0.99)),
            static_cast<unsigned long long>(run.reads_rejected),
            static_cast<unsigned long long>(run.reads_stale),
            run.agree ? "true" : "false");
        first = false;
      }
    }
    std::fprintf(out, "     ]}%s\n", fi == 0 ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"linearizable_099_over_writes_x\": %.2f,\n"
               "  \"ok\": %s\n"
               "}\n",
               gate_x, ok ? "true" : "false");
  std::fclose(out);
  std::printf("emit-json: linearizable@0.99=%.2fx ok=%d -> %s\n", gate_x,
              ok ? 1 : 0, path.c_str());
  return ok ? 0 : 2;
}

void BM_ReadFleet(benchmark::State& state) {
  const double ratio = static_cast<double>(state.range(0)) / 100.0;
  double tput = 0.0;
  for (auto _ : state) {
    const ReadRun run =
        run_read_fleet(/*n=*/4, /*f=*/1, ratio,
                       net::ReadConsistency::kLinearizable, /*total=*/128,
                       /*seed=*/1, /*serve_reads=*/ratio > 0.0);
    tput = ops_per_vsec(run, 128);
    benchmark::DoNotOptimize(run.all_done);
  }
  state.counters["ops_per_vsec"] = tput;
}
BENCHMARK(BM_ReadFleet)
    ->Arg(0)
    ->Arg(90)
    ->Arg(99)
    ->ArgName("read_pct")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 4;
  std::uint64_t total = 256;
  std::uint64_t total_large = 128;  // the n = 32 fleet's op count
  double smoke_bound_x = 0.0;
  std::string emit_json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<std::uint32_t>(
          std::strtoul(arg.c_str() + 4, nullptr, 10));
    } else if (arg.rfind("--ops=", 0) == 0) {
      total = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (arg.rfind("--ops-large=", 0) == 0) {
      total_large = std::strtoull(arg.c_str() + 12, nullptr, 10);
    } else if (arg.rfind("--smoke-bound-x=", 0) == 0) {
      smoke_bound_x = std::strtod(arg.c_str() + 16, nullptr);
    } else if (arg == "--smoke") {
      smoke_bound_x = 5.0;  // the acceptance bar
    } else if (arg.rfind("--emit-json=", 0) == 0) {
      emit_json_path = arg.substr(12);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (smoke_bound_x > 0) return run_smoke(n, total, smoke_bound_x);
  if (!emit_json_path.empty()) {
    return emit_json(emit_json_path, total, total_large);
  }

  print_table(n, total);
  print_table(32, total_large);
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
