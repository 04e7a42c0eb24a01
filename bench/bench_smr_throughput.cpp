// SMR pipeline/batching throughput (ISSUE 5 tentpole): committed
// commands per simulated second across window × batch size, against the
// serial single-command engine as the baseline row (W = 1, batch = 1
// reproduces the old open-one-slot-at-a-time loop).
//
// A sim::SmrFleet runs on the deterministic simulator network;
// the workload (256 requests from one client) is preloaded at the
// round-robin leader, so the measured time is the engine's, not the
// arrival process's. Reported per row: virtual-time throughput, speedup
// over the baseline, completion-time quantiles at the leader, and slots
// used. The harness also asserts the pipeline's content-invariance
// property: for a fixed batch size, per-seed slot logs are bit-identical
// across window sizes (the window changes scheduling, never content).
//
// --smoke-bound-x=K runs one baseline + one pipelined configuration at
// n = 32 and exits nonzero unless the pipelined engine clears K× the
// baseline throughput with identical logs — the CI regression gate for
// the ≥ 5× acceptance bar.
//
// --emit-json=PATH writes BENCH_smr.json instead: committed-commands/sec
// (serial vs pipelined), checkpoint certification overhead, and a timed
// reconstruction of a replica from a leader's real fsync'd WAL
// (scripts/run_benches.sh calls this and the result is committed
// in-repo as the durability baseline).
//
// Log identity is judged by the chained log digest (SmrReplica::
// log_digest()), never by comparing retained slot windows: stable
// checkpoints truncate slot_log() at replica-dependent times.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/smr_fleet.hpp"

namespace {

using namespace probft;

struct FleetRun {
  bool completed = false;
  bool identical = false;   // all replicas ended with equal slot logs
  TimePoint all_done = 0;   // virtual µs until every replica executed all
  double wall_ms = 0.0;
  std::uint64_t slots = 0;
  std::string digest;       // leader's slot-log digest
  std::vector<TimePoint> exec_at;  // per-command execution time (leader)
};

/// `leader_wal_dir`, when set, gives replica 1 a real fsync'd WAL there.
FleetRun run_fleet(std::uint32_t n, smr::SmrOptions options,
                   std::uint64_t commands, std::uint64_t seed,
                   const std::string& leader_wal_dir = {}) {
  FleetRun run;
  run.exec_at.resize(commands, 0);
  sim::SmrFleetConfig cfg;  // default latency: synchronous, 1–10 ms delays
  cfg.n = n;
  cfg.seed = seed;
  cfg.smr = options;
  if (!leader_wal_dir.empty()) {
    cfg.wal_dirs = {"", leader_wal_dir};
    cfg.wal_fsync = true;
  }
  cfg.on_execute = [&run](sim::SmrFleet& fleet, ReplicaId id,
                          const smr::ExecutedCommand& cmd) {
    if (id == 1 && cmd.index < run.exec_at.size()) {
      run.exec_at[cmd.index] = fleet.sim().now();
    }
  };
  sim::SmrFleet fleet(std::move(cfg));

  // Preloaded single-client workload at the leader.
  for (std::uint64_t i = 1; i <= commands; ++i) {
    (void)fleet.node(1).submit_request(9001, i,
                                       to_bytes("op-" + std::to_string(i)));
  }
  fleet.start();

  // A replica is done once its execution count covers the workload —
  // whether it executed every command itself or jumped ahead through a
  // certified state transfer (which installs exec_count without replaying
  // the truncated commands, so counting executions undercounts).
  const auto t0 = std::chrono::steady_clock::now();
  run.completed = fleet.run_until_executed(commands, 600'000'000);
  if (run.completed) run.all_done = fleet.sim().now();
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  // Chained log digest, not a digest of the retained slot window: stable
  // checkpoints truncate slot_log() at replica-dependent times, so only
  // the truncation-invariant chain identifies "same history".
  run.identical = fleet.logs_identical();
  run.slots = fleet.node(1).committed_slots();
  run.digest = fleet.node(1).log_digest();
  return run;
}

TimePoint quantile(std::vector<TimePoint> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[idx];
}

void print_table(std::uint32_t n, std::uint64_t commands) {
  std::printf(
      "\n================================================================\n"
      "SMR pipeline throughput — committed commands per simulated second\n"
      "(n = %u, %llu preloaded commands, seed 1; W=1/batch=1 is the old\n"
      "serial engine)\n"
      "================================================================\n",
      n, static_cast<unsigned long long>(commands));
  std::printf("%-8s %-8s %-7s %-12s %-9s %-11s %-11s %s\n", "window",
              "batch", "slots", "kcmd/vsec", "speedup", "p50-ms", "p99-ms",
              "identical-logs");
  const struct {
    std::uint32_t window, batch;
  } rows[] = {{1, 1}, {1, 16}, {4, 4}, {8, 16}, {16, 32}};
  double baseline = 0.0;
  for (const auto& row : rows) {
    smr::SmrOptions options;
    options.window = row.window;
    options.batch_max_commands = row.batch;
    const FleetRun run = run_fleet(n, options, commands, /*seed=*/1);
    const double throughput =
        run.all_done > 0
            ? static_cast<double>(commands) * 1e6 /
                  static_cast<double>(run.all_done) / 1e3
            : 0.0;
    if (row.window == 1 && row.batch == 1) baseline = throughput;
    std::printf("%-8u %-8u %-7llu %-12.2f %-9.2f %-11.1f %-11.1f %s\n",
                row.window, row.batch,
                static_cast<unsigned long long>(run.slots), throughput,
                baseline > 0 ? throughput / baseline : 0.0,
                static_cast<double>(quantile(run.exec_at, 0.5)) / 1000.0,
                static_cast<double>(quantile(run.exec_at, 0.99)) / 1000.0,
                run.completed ? (run.identical ? "yes" : "NO") : "DNF");
  }

  // Window invariance: same batch size, different windows — bit-identical
  // per-seed logs (the acceptance property the pipeline must preserve).
  smr::SmrOptions serial;
  serial.window = 1;
  serial.batch_max_commands = 16;
  smr::SmrOptions pipelined = serial;
  pipelined.window = 8;
  const auto a = run_fleet(n, serial, commands, /*seed=*/1);
  const auto b = run_fleet(n, pipelined, commands, /*seed=*/1);
  std::printf("\nwindow-invariance (batch=16): W=1 vs W=8 slot logs %s\n",
              a.digest == b.digest ? "bit-identical" : "DIFFER (BUG)");
}

/// CI regression gate: pipelined throughput must clear `bound_x` times
/// the serial baseline with bit-identical logs across windows.
int run_smoke(std::uint32_t n, std::uint64_t commands, double bound_x) {
  smr::SmrOptions serial;
  serial.window = 1;
  serial.batch_max_commands = 1;
  const FleetRun base = run_fleet(n, serial, commands, /*seed=*/1);

  smr::SmrOptions pipelined;
  pipelined.window = 8;
  pipelined.batch_max_commands = 16;
  const FleetRun fast = run_fleet(n, pipelined, commands, /*seed=*/1);

  // Same batch as the pipelined row, serial window: content must match.
  smr::SmrOptions serial_batched = pipelined;
  serial_batched.window = 1;
  const FleetRun check = run_fleet(n, serial_batched, commands, /*seed=*/1);

  const double speedup =
      base.all_done > 0 && fast.all_done > 0
          ? static_cast<double>(base.all_done) /
                static_cast<double>(fast.all_done)
          : 0.0;
  std::printf("smr smoke: n=%u commands=%llu serial=%lluus pipelined=%lluus "
              "speedup=%.1fx bound=%.1fx identical=%d window_invariant=%d\n",
              n, static_cast<unsigned long long>(commands),
              static_cast<unsigned long long>(base.all_done),
              static_cast<unsigned long long>(fast.all_done), speedup,
              bound_x, base.identical && fast.identical ? 1 : 0,
              fast.digest == check.digest ? 1 : 0);
  if (!base.completed || !fast.completed || !check.completed ||
      !base.identical || !fast.identical || !check.identical) {
    std::fprintf(stderr,
                 "smr smoke: BAD OUTCOME completed=%d/%d/%d "
                 "identical=%d/%d/%d\n",
                 base.completed, fast.completed, check.completed,
                 base.identical, fast.identical, check.identical);
    return 2;
  }
  if (fast.digest != check.digest) {
    std::fprintf(stderr, "smr smoke: logs differ across window sizes\n");
    return 2;
  }
  if (speedup < bound_x) {
    std::fprintf(stderr, "smr smoke: speedup %.1fx below %.1fx\n", speedup,
                 bound_x);
    return 1;
  }
  return 0;
}

double kcmd_per_vsec(const FleetRun& run, std::uint64_t commands) {
  if (run.all_done == 0) return 0.0;
  return static_cast<double>(commands) * 1e6 /
         static_cast<double>(run.all_done) / 1e3;
}

/// Machine-readable summary (BENCH_smr.json): committed-commands/sec for
/// the serial and pipelined engines, checkpoint overhead, and a timed
/// WAL recovery of a fresh replica from a leader's real on-disk log.
int emit_json(const std::string& path, std::uint32_t n,
              std::uint64_t commands) {
  smr::SmrOptions serial;
  serial.window = 1;
  serial.batch_max_commands = 1;
  smr::SmrOptions pipelined;
  pipelined.window = 8;
  pipelined.batch_max_commands = 16;
  const FleetRun base = run_fleet(n, serial, commands, /*seed=*/1);
  const FleetRun fast = run_fleet(n, pipelined, commands, /*seed=*/1);

  // Checkpoint overhead: the same pipelined engine with checkpointing
  // disabled — the delta is what certification + truncation cost.
  smr::SmrOptions no_ckpt = pipelined;
  no_ckpt.checkpoint_interval = 0;
  const FleetRun plain = run_fleet(n, no_ckpt, commands, /*seed=*/1);

  // Durability + recovery: an n = 4 fleet whose leader appends every
  // decide to a real fsync'd WAL (checkpoint interval 4 so stable
  // checkpoints actually truncate it), then a fresh replica is rebuilt
  // from that WAL alone and the reconstruction is wall-clock timed.
  const std::uint32_t rec_n = 4;
  const auto wal_dir =
      std::filesystem::temp_directory_path() /
      ("probft-bench-wal-" + std::to_string(::getpid()));
  std::filesystem::remove_all(wal_dir);
  smr::SmrOptions durable_opts = pipelined;
  durable_opts.checkpoint_interval = 4;
  double durable_tput = 0.0;
  double recovery_us = 0.0;
  std::uint64_t recovered_slots = 0;
  std::uint64_t stable_slot = 0;
  std::uint64_t wal_records = 0;
  bool digest_match = false;
  bool completed = false;
  std::string precrash_digest;
  {
    const FleetRun durable = run_fleet(rec_n, durable_opts, commands,
                                       /*seed=*/1, wal_dir.string());
    completed = durable.completed;
    durable_tput = kcmd_per_vsec(durable, commands);
    precrash_digest = durable.digest;
  }
  {
    // A crash-restarted process opens its own Wal: the timed span is the
    // whole cold path — segment scan + snapshot verification + replay.
    // Same config and key material run_fleet gives replica 1 at seed 1.
    const auto suite = crypto::make_sim_suite();
    const sim::FleetKeys keys = sim::derive_keys(*suite, rec_n, 1);
    sim::NodeParams params;
    params.id = 1;
    params.n = rec_n;
    params.smr = durable_opts;
    params.suite = suite.get();
    params.secret_key = keys.pairs[1].secret_key;
    params.public_keys = keys.public_keys;
    smr::SmrConfig cfg = sim::smr_config(params);
    core::ProtocolHost host;
    host.send = [](ReplicaId, std::uint8_t, const Bytes&) {};
    host.broadcast = [](std::uint8_t, const Bytes&) {};
    host.set_timer = [](Duration, std::function<void()>) {};

    const auto t0 = std::chrono::steady_clock::now();
    store::Wal wal(store::WalOptions{wal_dir.string(), /*fsync=*/true});
    cfg.wal = &wal;
    smr::SmrReplica reborn(std::move(cfg), host);
    recovery_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    wal_records = wal.records().size();
    recovered_slots = reborn.recovered_slots();
    stable_slot = reborn.stable_checkpoint();
    digest_match = reborn.log_digest() == precrash_digest;
  }
  std::filesystem::remove_all(wal_dir);

  const double base_t = kcmd_per_vsec(base, commands);
  const double fast_t = kcmd_per_vsec(fast, commands);
  const double plain_t = kcmd_per_vsec(plain, commands);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "emit-json: cannot open %s\n", path.c_str());
    return 2;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"smr\",\n"
      "  \"n\": %u,\n"
      "  \"commands\": %llu,\n"
      "  \"throughput\": {\n"
      "    \"serial_kcmd_per_vsec\": %.2f,\n"
      "    \"pipelined_kcmd_per_vsec\": %.2f,\n"
      "    \"speedup_x\": %.2f\n"
      "  },\n"
      "  \"checkpoint\": {\n"
      "    \"interval_slots\": %llu,\n"
      "    \"pipelined_kcmd_per_vsec_without\": %.2f,\n"
      "    \"overhead_pct\": %.1f\n"
      "  },\n"
      "  \"recovery\": {\n"
      "    \"n\": %u,\n"
      "    \"durable_kcmd_per_vsec_fsync_wal\": %.2f,\n"
      "    \"wal_tail_records\": %llu,\n"
      "    \"recovered_slots\": %llu,\n"
      "    \"stable_checkpoint_slot\": %llu,\n"
      "    \"recovery_wall_us\": %.0f,\n"
      "    \"digest_matches_precrash\": %s\n"
      "  }\n"
      "}\n",
      n, static_cast<unsigned long long>(commands), base_t, fast_t,
      base_t > 0 ? fast_t / base_t : 0.0,
      static_cast<unsigned long long>(pipelined.checkpoint_interval),
      plain_t, plain_t > 0 ? (plain_t - fast_t) * 100.0 / plain_t : 0.0,
      rec_n, durable_tput, static_cast<unsigned long long>(wal_records),
      static_cast<unsigned long long>(recovered_slots),
      static_cast<unsigned long long>(stable_slot), recovery_us,
      digest_match ? "true" : "false");
  std::fclose(out);
  std::printf(
      "emit-json: serial=%.2f pipelined=%.2f (%.1fx) ckpt-overhead=%.1f%% "
      "recovery=%.0fus slots=%llu digest_match=%d -> %s\n",
      base_t, fast_t, base_t > 0 ? fast_t / base_t : 0.0,
      plain_t > 0 ? (plain_t - fast_t) * 100.0 / plain_t : 0.0, recovery_us,
      static_cast<unsigned long long>(recovered_slots), digest_match ? 1 : 0,
      path.c_str());
  if (!base.completed || !fast.completed || !plain.completed || !completed ||
      !digest_match || recovered_slots == 0) {
    std::fprintf(stderr, "emit-json: BAD OUTCOME (incomplete run or "
                         "recovery mismatch)\n");
    return 2;
  }
  return 0;
}

void BM_SmrThroughput(benchmark::State& state) {
  const auto window = static_cast<std::uint32_t>(state.range(0));
  const auto batch = static_cast<std::uint32_t>(state.range(1));
  smr::SmrOptions options;
  options.window = window;
  options.batch_max_commands = batch;
  double kcmd_per_vsec = 0.0;
  for (auto _ : state) {
    const FleetRun run = run_fleet(/*n=*/16, options, /*commands=*/128,
                                   /*seed=*/1);
    if (run.all_done > 0) {
      kcmd_per_vsec = 128.0 * 1e6 / static_cast<double>(run.all_done) / 1e3;
    }
    benchmark::DoNotOptimize(run.all_done);
  }
  state.counters["kcmd_per_vsec"] = kcmd_per_vsec;
}
BENCHMARK(BM_SmrThroughput)
    ->Args({1, 1})
    ->Args({8, 16})
    ->ArgNames({"window", "batch"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 32;
  std::uint64_t commands = 256;
  double smoke_bound_x = 0.0;
  std::string emit_json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<std::uint32_t>(
          std::strtoul(arg.c_str() + 4, nullptr, 10));
    } else if (arg.rfind("--commands=", 0) == 0) {
      commands = std::strtoull(arg.c_str() + 11, nullptr, 10);
    } else if (arg.rfind("--smoke-bound-x=", 0) == 0) {
      smoke_bound_x = std::strtod(arg.c_str() + 16, nullptr);
    } else if (arg.rfind("--emit-json=", 0) == 0) {
      emit_json_path = arg.substr(12);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (smoke_bound_x > 0) return run_smoke(n, commands, smoke_bound_x);
  if (!emit_json_path.empty()) return emit_json(emit_json_path, n, commands);

  print_table(n, commands);
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
