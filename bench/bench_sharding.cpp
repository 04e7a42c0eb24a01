// Sharded SMR scaling (ISSUE 8 tentpole): aggregate committed commands
// per simulated second as the shard count grows, on a fixed fleet.
//
// A fleet of n probft nodes each runs a shard::ShardedSmr (S consensus
// groups multiplexed over one simulated network connection per node).
// The workload — `commands` single-command requests from distinct
// clients — is submitted at replica 1, whose placement layer routes each
// payload to its owning group and forwards it to that group's view-1
// leader. One group serializes everything through a single slot window;
// S groups run S windows with round-robin leaders, so aggregate
// throughput should scale close to S until batching absorbs the load
// (batch_max_commands = 1 keeps slot rate, not batch capacity, the
// bottleneck — the regime the paper's scalability argument addresses).
//
// Reported per row: aggregate kcmd per virtual second, speedup over the
// S = 1 baseline, and per-shard log agreement across the fleet. A
// second table drives cross-shard transactions (shard::DtxCoordinator,
// one mined key per shard so every group participates) and reports
// commit-latency quantiles in virtual time.
//
// --smoke runs the CI acceptance gate: S = 4 aggregate throughput must
// clear 2.5x the S = 1 baseline with per-shard digest agreement and
// every cross-shard transaction committed; exits nonzero otherwise.
//
// --emit-json=PATH writes BENCH_sharding.json (the committed scaling
// baseline) instead of the tables.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "shard/dtx.hpp"
#include "shard/sharded_smr.hpp"

namespace {

using namespace probft;

struct ShardedRun {
  bool completed = false;
  bool agree = false;       // per-shard digests equal across the fleet
  TimePoint all_done = 0;   // virtual µs until every node executed all
  double wall_ms = 0.0;
  std::uint64_t slots = 0;  // aggregate committed slots at replica 1
  std::uint64_t dtx_committed = 0;
  std::uint64_t dtx_aborted = 0;
  std::vector<TimePoint> dtx_latency;  // per-tx submit → complete, virtual µs
};

/// One fleet run: n ShardedSmr nodes, `commands` routed client requests
/// (one client per command, like the scenario harness, so per-group
/// dedup can never absorb reordered forwards), plus `dtx_count`
/// cross-shard transactions submitted at replica 1 once the groups are
/// live. Completion = every node executed every entry.
ShardedRun run_sharded_fleet(std::uint32_t n, std::uint32_t shards,
                             smr::SmrOptions options, std::uint64_t commands,
                             std::uint64_t dtx_count, std::uint64_t seed) {
  net::Simulator sim;
  net::LatencyConfig latency;  // defaults: synchronous, 1–10 ms delays
  net::Network network(sim, n, seed, latency);
  const auto suite = crypto::make_sim_suite();

  std::vector<crypto::KeyPair> keys(n + 1);
  std::vector<Bytes> key_table(n + 1);
  for (ReplicaId id = 1; id <= n; ++id) {
    keys[id] = suite->keygen(mix64(seed, id));
    key_table[id] = keys[id].public_key;
  }
  const crypto::PublicKeyDir public_keys(std::move(key_table));

  ShardedRun run;
  std::vector<std::unique_ptr<shard::ShardedSmr>> nodes(n + 1);
  std::vector<std::unique_ptr<shard::DtxCoordinator>> dtx(n + 1);
  for (ReplicaId id = 1; id <= n; ++id) {
    shard::ShardedSmrConfig cfg;
    cfg.base.id = id;
    cfg.base.n = n;
    cfg.base.f = 0;
    cfg.base.pipeline = options;
    cfg.base.suite = suite.get();
    cfg.base.secret_key = keys[id].secret_key;
    cfg.base.public_keys = public_keys;
    cfg.base.sync.base_timeout = 100'000;
    cfg.map.shard_count = shards;
    cfg.on_execute = [&dtx, id](shard::ShardId s,
                                const smr::ExecutedCommand& cmd) {
      if (dtx[id]) dtx[id]->on_execute(s, cmd);
    };
    core::ProtocolHost host;
    host.send = [&network, id](ReplicaId to, std::uint8_t tag,
                               const Bytes& m) {
      network.send(id, to, tag, m);
    };
    host.broadcast = [&network, id](std::uint8_t tag, const Bytes& m) {
      network.broadcast(id, tag, m);
    };
    host.set_timer = [&sim](Duration d, std::function<void()> fn) {
      sim.schedule_after(d, std::move(fn));
    };
    nodes[id] = std::make_unique<shard::ShardedSmr>(std::move(cfg), host);
    dtx[id] = std::make_unique<shard::DtxCoordinator>(
        *nodes[id], [&sim](Duration d, std::function<void()> fn) {
          sim.schedule_after(d, std::move(fn));
        });
    network.register_handler(
        id, [&nodes, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
          nodes[id]->on_message(from, tag, m);
        });
  }

  // Workload: distinct clients, routed by payload hash at replica 1.
  for (std::uint64_t i = 1; i <= commands; ++i) {
    (void)nodes[1]->submit_request(9000 + i, 1,
                                   to_bytes("op-" + std::to_string(i)));
  }
  for (ReplicaId id = 1; id <= n; ++id) nodes[id]->start();

  // Cross-shard transactions: one mined key per shard, submitted at
  // replica 1, completion observed via replica 1's coordinator.
  std::map<std::uint64_t, std::size_t> tx_index;  // txid → latency slot
  std::vector<TimePoint> submitted(dtx_count, 0);
  run.dtx_latency.assign(dtx_count, 0);
  dtx[1]->set_on_complete([&run, &sim, &tx_index, &submitted](
                              std::uint64_t txid, bool committed,
                              std::uint64_t, std::uint64_t) {
    if (committed) {
      ++run.dtx_committed;
    } else {
      ++run.dtx_aborted;
    }
    const auto it = tx_index.find(txid);
    if (it != tx_index.end()) {
      run.dtx_latency[it->second] = sim.now() - submitted[it->second];
    }
  });
  const shard::ShardMap map = nodes[1]->placement().map();
  for (std::uint64_t j = 0; j < dtx_count; ++j) {
    std::vector<Bytes> tx_keys;
    for (shard::ShardId s = 0; s < shards; ++s) {
      for (std::uint64_t nonce = 0;; ++nonce) {
        Bytes key = to_bytes("dtx-" + std::to_string(j) + "-" +
                             std::to_string(nonce));
        if (shard::shard_of(map, ByteSpan(key.data(), key.size())) == s) {
          tx_keys.push_back(std::move(key));
          break;
        }
      }
    }
    Bytes payload = shard::DtxCoordinator::encode_request(tx_keys);
    const std::uint64_t client = 88'000 + j;
    tx_index[shard::DtxCoordinator::txid_of(client, 1, payload)] = j;
    submitted[j] = sim.now();
    (void)dtx[1]->submit(client, 1, std::move(payload));
  }

  // Every committed entry is deterministic: each S-participant tx adds
  // 2 + 2S entries on top of the client commands.
  const std::uint64_t expect = commands + dtx_count * (2 + 2 * shards);
  const auto t0 = std::chrono::steady_clock::now();
  while (sim.now() < 600'000'000) {
    bool all = run.dtx_committed + run.dtx_aborted >= dtx_count;
    for (ReplicaId id = 1; all && id <= n; ++id) {
      if (nodes[id]->executed_commands() < expect) all = false;
    }
    if (all) {
      run.completed = true;
      run.all_done = sim.now();
      break;
    }
    if (!sim.step()) break;
  }
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  run.agree = true;
  for (shard::ShardId s = 0; s < shards; ++s) {
    for (ReplicaId id = 2; id <= n; ++id) {
      if (nodes[id]->log_digest(s) != nodes[1]->log_digest(s)) {
        run.agree = false;
      }
    }
  }
  run.slots = nodes[1]->committed_slots();
  return run;
}

double kcmd_per_vsec(const ShardedRun& run, std::uint64_t commands) {
  if (run.all_done == 0) return 0.0;
  return static_cast<double>(commands) * 1e6 /
         static_cast<double>(run.all_done) / 1e3;
}

TimePoint quantile(std::vector<TimePoint> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[idx];
}

smr::SmrOptions bench_options() {
  smr::SmrOptions options;
  // Slot-rate-bound regime: one command per slot, a modest window.
  // Larger batches flatten the S-curve by absorbing the whole workload
  // into a handful of slots per group.
  options.window = 4;
  options.batch_max_commands = 1;
  options.max_slots = 1u << 20;
  return options;
}

constexpr std::uint32_t kShardSweep[] = {1, 2, 4, 8};

void print_table(std::uint32_t n, std::uint64_t commands,
                 std::uint64_t dtx_count) {
  std::printf(
      "\n================================================================\n"
      "Sharded SMR scaling — aggregate committed commands per simulated\n"
      "second (n = %u, %llu single-command requests routed by placement\n"
      "hash, %llu cross-shard transactions, seed 1; S = 1 is one plain\n"
      "consensus group)\n"
      "================================================================\n",
      n, static_cast<unsigned long long>(commands),
      static_cast<unsigned long long>(dtx_count));
  std::printf("%-8s %-8s %-12s %-9s %-11s %-11s %-6s %s\n", "shards",
              "slots", "kcmd/vsec", "speedup", "dtx-p50-ms", "dtx-p99-ms",
              "dtx", "per-shard-agree");
  double baseline = 0.0;
  for (const std::uint32_t shards : kShardSweep) {
    const ShardedRun run =
        run_sharded_fleet(n, shards, bench_options(), commands, dtx_count,
                          /*seed=*/1);
    const double throughput = kcmd_per_vsec(run, commands);
    if (shards == 1) baseline = throughput;
    std::printf(
        "%-8u %-8llu %-12.2f %-9.2f %-11.1f %-11.1f %llu/%llu %s\n", shards,
        static_cast<unsigned long long>(run.slots), throughput,
        baseline > 0 ? throughput / baseline : 0.0,
        static_cast<double>(quantile(run.dtx_latency, 0.5)) / 1000.0,
        static_cast<double>(quantile(run.dtx_latency, 0.99)) / 1000.0,
        static_cast<unsigned long long>(run.dtx_committed),
        static_cast<unsigned long long>(dtx_count),
        run.completed ? (run.agree ? "yes" : "NO") : "DNF");
  }
}

/// CI acceptance gate: S = 4 must clear `bound_x` times the S = 1
/// aggregate with per-shard agreement and every dtx committed.
int run_smoke(std::uint32_t n, std::uint64_t commands, double bound_x) {
  const ShardedRun base =
      run_sharded_fleet(n, 1, bench_options(), commands, /*dtx=*/2,
                        /*seed=*/1);
  const ShardedRun wide =
      run_sharded_fleet(n, 4, bench_options(), commands, /*dtx=*/2,
                        /*seed=*/1);
  const double speedup =
      base.all_done > 0 && wide.all_done > 0
          ? static_cast<double>(base.all_done) /
                static_cast<double>(wide.all_done)
          : 0.0;
  std::printf("shard smoke: n=%u commands=%llu s1=%lluus s4=%lluus "
              "speedup=%.2fx bound=%.1fx agree=%d/%d dtx=%llu+%llu\n",
              n, static_cast<unsigned long long>(commands),
              static_cast<unsigned long long>(base.all_done),
              static_cast<unsigned long long>(wide.all_done), speedup,
              bound_x, base.agree ? 1 : 0, wide.agree ? 1 : 0,
              static_cast<unsigned long long>(base.dtx_committed),
              static_cast<unsigned long long>(wide.dtx_committed));
  if (!base.completed || !wide.completed || !base.agree || !wide.agree) {
    std::fprintf(stderr, "shard smoke: BAD OUTCOME completed=%d/%d "
                         "agree=%d/%d\n",
                 base.completed, wide.completed, base.agree, wide.agree);
    return 2;
  }
  if (base.dtx_committed != 2 || wide.dtx_committed != 2 ||
      base.dtx_aborted + wide.dtx_aborted != 0) {
    std::fprintf(stderr, "shard smoke: cross-shard transactions did not "
                         "all commit\n");
    return 2;
  }
  if (speedup < bound_x) {
    std::fprintf(stderr, "shard smoke: S=4 speedup %.2fx below %.1fx\n",
                 speedup, bound_x);
    return 1;
  }
  return 0;
}

/// Machine-readable scaling baseline (BENCH_sharding.json).
int emit_json(const std::string& path, std::uint32_t n,
              std::uint64_t commands, std::uint64_t dtx_count) {
  struct Row {
    std::uint32_t shards;
    ShardedRun run;
  };
  std::vector<Row> rows;
  for (const std::uint32_t shards : kShardSweep) {
    rows.push_back({shards, run_sharded_fleet(n, shards, bench_options(),
                                              commands, dtx_count,
                                              /*seed=*/1)});
  }
  const double base_t = kcmd_per_vsec(rows.front().run, commands);
  double s4_x = 0.0;
  bool ok = true;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "emit-json: cannot open %s\n", path.c_str());
    return 2;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"sharding\",\n"
               "  \"n\": %u,\n"
               "  \"commands\": %llu,\n"
               "  \"dtx_per_row\": %llu,\n"
               "  \"rows\": [\n",
               n, static_cast<unsigned long long>(commands),
               static_cast<unsigned long long>(dtx_count));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [shards, run] = rows[i];
    const double tput = kcmd_per_vsec(run, commands);
    const double speedup = base_t > 0 ? tput / base_t : 0.0;
    if (shards == 4) s4_x = speedup;
    ok = ok && run.completed && run.agree &&
         run.dtx_committed == dtx_count && run.dtx_aborted == 0;
    std::fprintf(
        out,
        "    {\"shards\": %u, \"kcmd_per_vsec\": %.2f, \"speedup_x\": "
        "%.2f, \"slots\": %llu, \"dtx_committed\": %llu, "
        "\"dtx_p50_ms\": %.1f, \"dtx_p99_ms\": %.1f, "
        "\"per_shard_agree\": %s}%s\n",
        shards, tput, speedup, static_cast<unsigned long long>(run.slots),
        static_cast<unsigned long long>(run.dtx_committed),
        static_cast<double>(quantile(run.dtx_latency, 0.5)) / 1000.0,
        static_cast<double>(quantile(run.dtx_latency, 0.99)) / 1000.0,
        run.agree ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"s4_over_s1_x\": %.2f,\n"
               "  \"ok\": %s\n"
               "}\n",
               s4_x, ok ? "true" : "false");
  std::fclose(out);
  std::printf("emit-json: s4_over_s1=%.2fx ok=%d -> %s\n", s4_x, ok ? 1 : 0,
              path.c_str());
  return ok ? 0 : 2;
}

void BM_ShardedThroughput(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  double tput = 0.0;
  for (auto _ : state) {
    const ShardedRun run = run_sharded_fleet(/*n=*/4, shards,
                                             bench_options(),
                                             /*commands=*/128, /*dtx=*/0,
                                             /*seed=*/1);
    tput = kcmd_per_vsec(run, 128);
    benchmark::DoNotOptimize(run.all_done);
  }
  state.counters["kcmd_per_vsec"] = tput;
}
BENCHMARK(BM_ShardedThroughput)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("shards")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 4;
  std::uint64_t commands = 256;
  std::uint64_t dtx_count = 8;
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
    } else if (arg.rfind("--dtx=", 0) == 0) {
      dtx_count = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (arg.rfind("--smoke-bound-x=", 0) == 0) {
      smoke_bound_x = std::strtod(arg.c_str() + 16, nullptr);
    } else if (arg == "--smoke") {
      smoke_bound_x = 2.5;  // the acceptance bar
    } else if (arg.rfind("--emit-json=", 0) == 0) {
      emit_json_path = arg.substr(12);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (smoke_bound_x > 0) return run_smoke(n, commands, smoke_bound_x);
  if (!emit_json_path.empty()) {
    return emit_json(emit_json_path, n, commands, dtx_count);
  }

  print_table(n, commands, dtx_count);
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
