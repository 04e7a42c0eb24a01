// Wall-clock benchmark of a 4-replica probft_node SMR cluster on 127.0.0.1.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --node PATH/probft_node --workdir DIR
//
// Every run starts fresh clusters of real probft_node processes (n = 4,
// --f 1 --l 1.5, the node's default window and batch) and drives them from
// one single-threaded load generator (loadgen.hpp). Each cluster is timed
// from spawn to its first committed reply (setup), warmed up, measured,
// drained, and stopped; its replicas then pass the correctness gate:
// identical log digests, every completed write executed exactly once, and
// no replica at the 1024-slot cap. Workloads:
//
//   durable-writes  ed25519, fsync'd WAL per node, 8 closed-loop writers
//   write-ladder    sim suite, open-loop writes at a fixed ladder of rates,
//                   one fresh cluster per rung
//   read-mostly     ed25519 with --reads 1, 8 closed-loop clients, 90%
//                   linearizable reads of the client's own completed writes
//   leader-crash    sim suite, open-loop writes at one rate; replica 1 (the
//                   view-1 leader) is SIGKILLed 30% into the window
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same process
// clusters for the metrics read from outside the nodes (--stats lines,
// SMRLOG, /proc/<pid>/io, rusage), then one traced cluster hosted in this
// process (traced_cluster.hpp) for the per-stage and per-layer split, and
// prints the per-layer metrics. Every metric is printed by name with its
// unit; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when a
// correctness check failed, 2 when the run could not be carried out.
#include <array>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/tags.hpp"
#include "proc_cluster.hpp"
#include "traced_cluster.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace tags = probft::net::tags;

/// SmrOptions::max_slots; probft_node never overrides it, and a replica
/// that reaches it stops committing. Runs are sized well below it.
constexpr std::uint64_t kSlotCap = 1024;
/// At most this many ops per write-ladder rung (~500 full 64-command
/// slots), so a high rung's window shrinks instead of nearing the cap.
constexpr double kMaxRungOps = 32000;
constexpr std::int64_t kSettle = 300 * kMs;  // the last commit propagates
constexpr std::int64_t kWarmHost = 500 * kMs;  // the unmeasured first cluster
constexpr double kKillAt = 0.3;  // share of the window before the kill
constexpr double kLatencyLimitMs = 100.0;  // write-ladder: p99 of a passing rung
// A traced write's four stages must add up to its latency within this;
// the only unmeasured gap is decoding the request in the client handler.
constexpr double kStageToleranceMs = 0.5;
constexpr double kStageToleranceFrac = 0.02;
constexpr std::uint64_t kClientBase = 1000;

struct Workload {
  std::string name;
  std::string suite;
  bool wal = false;
  bool reads = false;
  bool open_loop = false;
  bool crash = false;
  std::uint32_t clients = 8;
  double read_frac = 0.0;
  double rate = 0.0;             // open loop: offered ops/s
  std::vector<double> rungs;     // write-ladder: offered ops/s, ascending
  std::size_t high_rung = 0;     // write-ladder: the ~70%-of-saturation rung
  int clusters = 3;              // fresh clusters per run (not the ladder)
  std::int64_t warmup = 500 * kMs;
  /// Closed loop: the window ends early after this many writes, so a
  /// faster cluster cannot run into the slot cap (0: no budget).
  std::uint64_t max_writes = 0;
};

std::vector<Workload> all_workloads() {
  Workload durable{"durable-writes", "ed25519"};
  durable.wal = true;
  durable.max_writes = 800;

  // The low rung sits well inside the pacing-timer regime (50 requests
  // per 20 ms batch_timeout, below the 64-command batch cap), so its
  // latency does not flip between timer- and fill-driven batches.
  Workload ladder{"write-ladder", "sim"};
  ladder.open_loop = true;
  ladder.rungs = {2500, 10000, 17500, 25000, 32500, 40000};
  ladder.high_rung = 3;
  ladder.warmup = 200 * kMs;

  Workload reads{"read-mostly", "ed25519"};
  reads.reads = true;
  reads.read_frac = 0.9;
  reads.max_writes = 800;

  Workload crash{"leader-crash", "sim"};
  crash.open_loop = true;
  crash.crash = true;
  crash.rate = 150;
  crash.clusters = 2;  // long windows: most of each is after the kill

  return {durable, ladder, reads, crash};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string node_bin;
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    errors.push_back(why);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }
};

/// One cluster's run: its load samples and what its replicas reported.
struct ClusterRun {
  double rate = 0.0;
  double setup_s = 0.0;
  std::vector<OpSample> samples;
  GenCounters counters;
  std::int64_t window_start = 0;
  std::int64_t window_end = 0;
  std::int64_t kill_time = 0;
  std::vector<NodeReport> nodes;
};

struct LogState {
  std::uint32_t id = 0;
  std::uint64_t slots = 0;
  std::uint64_t cmds = 0;
  std::string digest;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> values) {
  return summarize(std::move(values)).p50;
}

Phase load_phase(const Workload& w, double rate, std::int64_t duration,
                 bool record) {
  Phase phase;
  phase.open_loop = w.open_loop;
  phase.clients = w.clients;
  phase.rate = rate;
  phase.read_frac = w.read_frac;
  phase.duration_ns = duration;
  phase.record = record;
  if (record) phase.max_writes = w.max_writes;
  return phase;
}

/// Warm-up, the measured window (with the crash in it, if any), drain, and
/// one write through every live server: a replica answers it only after
/// executing everything before it, so a follower that fell behind under
/// load has caught up before the logs are compared.
void offer(LoadGen& gen, const Workload& w, double rate,
           std::int64_t measure, const std::function<void()>& kill) {
  gen.run(load_phase(w, rate, w.warmup, false));
  Phase window = load_phase(w, rate, measure, true);
  if (w.crash) {
    window.kill_after_ns =
        static_cast<std::int64_t>(static_cast<double>(measure) * kKillAt);
  }
  gen.run(window, kill);
  gen.drain();
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < gen.servers(); ++s) {
    if (gen.live(s)) live.push_back(s);
  }
  if (gen.probe(now_ns() + 20 * kSec, live) == 0) {
    throw std::runtime_error(w.name +
                             ": a replica did not catch up after the load");
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(kSettle));
}

/// The correctness gate on one cluster's surviving replicas.
void check_logs(Report& rep, const std::string& where,
                const std::vector<LogState>& logs, std::uint64_t writes_ok) {
  if (logs.empty()) {
    rep.fail(where + ": no replica reported its log");
    ++rep.failed;
    return;
  }
  for (const LogState& log : logs) {
    const std::string who = where + " replica " + std::to_string(log.id);
    if (log.slots >= kSlotCap) {
      rep.fail(who + " reached the " + std::to_string(kSlotCap) +
               "-slot cap; size the run smaller");
      ++rep.failed;
    }
    if (log.digest != logs.front().digest) {
      rep.fail(who + " log digest differs from replica " +
               std::to_string(logs.front().id));
      ++rep.failed;
    }
    if (log.cmds != writes_ok) {
      rep.fail(who + " executed " + std::to_string(log.cmds) +
               " commands, but " + std::to_string(writes_ok) +
               " writes completed");
      ++rep.failed;
    }
  }
}

void count_ops(Report& rep, const std::string& where, const GenCounters& c) {
  rep.attempted += c.attempted;
  rep.failed += c.failed();
  if (c.failed() > 0) {
    rep.fail(where + ": " + std::to_string(c.wrong) + " wrong answers, " +
             std::to_string(c.timed_out) + " ops timed out");
  }
}

/// One write through the first server (its answer ends set-up), then one
/// through every other server, so load starts only once all replicas are
/// connected and committing. Returns when the first answer arrived.
std::int64_t bring_up(LoadGen& gen, const std::string& where) {
  const std::int64_t first = gen.probe(now_ns() + 20 * kSec, {0});
  if (first == 0) throw std::runtime_error(where + ": no first reply");
  std::vector<std::size_t> others;
  for (std::size_t s = 1; s < gen.servers(); ++s) others.push_back(s);
  if (gen.probe(now_ns() + 20 * kSec, others) == 0) {
    throw std::runtime_error(where + ": a replica never answered");
  }
  return first;
}

ClusterRun run_process_cluster(const Args& a, const Workload& w, int index,
                               double rate, std::int64_t measure,
                               Report& rep) {
  const std::string where = w.name + " cluster " + std::to_string(index);
  NodeConfig nc;
  nc.node_bin = a.node_bin;
  nc.dir = a.workdir + "/" + w.name + "/c" + std::to_string(index);
  nc.seed = a.seed;
  nc.suite = w.suite;
  nc.wal = w.wal;
  nc.reads = w.reads;
  for (int attempt = 1;; ++attempt) {
    fs::remove_all(nc.dir);
    fs::create_directories(nc.dir);
    ProcCluster cluster(nc);
    cluster.spawn();
    LoadGen gen(cluster.client_endpoints(),
                probft::mix64(a.seed, static_cast<std::uint64_t>(index)),
                kClientBase);
    if (!gen.connect(now_ns() + 10 * kSec,
                     [&cluster] { return cluster.any_exited(); })) {
      cluster.stop();
      if (attempt == 3) {
        throw std::runtime_error(where + ": nodes never came up");
      }
      std::fprintf(stderr, "%s: a node did not come up; respawning\n",
                   where.c_str());
      continue;
    }
    ClusterRun run;
    run.rate = rate;
    const std::int64_t first = bring_up(gen, where);
    run.setup_s = static_cast<double>(first - cluster.spawned_at()) / 1e9;
    std::printf("%s: set up in %.4f s\n", where.c_str(), run.setup_s);
    offer(gen, w, rate, measure, [&cluster] { cluster.kill_node(1); });
    run.nodes = cluster.stop();
    run.samples = gen.samples();
    run.counters = gen.counters();
    run.window_start = gen.window_start();
    run.window_end = gen.window_end();
    run.kill_time = gen.kill_time();

    std::vector<LogState> logs;
    for (const NodeReport& node : run.nodes) {
      if (node.killed) continue;
      if (!node.has_log) {
        rep.fail(where + " replica " + std::to_string(node.id) +
                 " printed no SMRLOG line");
        ++rep.failed;
        continue;
      }
      logs.push_back(LogState{node.id, node.slots, node.cmds, node.digest});
    }
    check_logs(rep, where, logs, run.counters.writes_ok);
    count_ops(rep, where, run.counters);
    return run;
  }
}

std::vector<double> latencies_ms(const ClusterRun& run, bool reads) {
  std::vector<double> out;
  for (const OpSample& s : run.samples) {
    if (s.read == reads && s.ok) out.push_back(to_ms(s.done - s.due));
  }
  return out;
}

std::vector<double> pooled_latencies_ms(const std::vector<ClusterRun>& runs,
                                        bool reads) {
  std::vector<double> out;
  for (const ClusterRun& run : runs) {
    const auto part = latencies_ms(run, reads);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

double window_s(const ClusterRun& run) {
  return static_cast<double>(run.window_end - run.window_start) / 1e9;
}

/// write-ladder: one rung's verdict. A failed op counts as missing the
/// latency limit; "completed within the rung" allows an op due at the end
/// of the window the latency limit to finish, so only a growing backlog
/// fails it.
struct Rung {
  double achieved = 0.0;  // ops/s answered inside the window
  Summary latency;
  double completed = 0.0;  // share of the window's ops answered in time
  bool pass = false;
};

Rung eval_rung(const ClusterRun& run) {
  Rung rung;
  std::vector<double> lat;
  std::size_t in_time = 0;
  const std::int64_t limit =
      run.window_end + static_cast<std::int64_t>(kLatencyLimitMs * 1e6);
  for (const OpSample& s : run.samples) {
    lat.push_back(s.ok ? to_ms(s.done - s.due) : 1e12);
    if (s.ok && s.done <= limit) ++in_time;
  }
  rung.latency = summarize(lat);
  rung.completed =
      ratio(static_cast<double>(in_time), static_cast<double>(lat.size()));
  rung.achieved =
      ratio(static_cast<double>(run.counters.window_done), window_s(run));
  rung.pass = !lat.empty() && rung.latency.p99 <= kLatencyLimitMs &&
              rung.completed >= 0.99;
  return rung;
}

/// leader-crash: time without service after the kill, and the rate after.
struct Fault {
  bool seen = false;
  double unavail_ms = 0.0;
  double post_fault_ops_s = 0.0;
};

Fault eval_fault(const ClusterRun& run) {
  Fault fault;
  std::int64_t first = 0;
  for (const OpSample& s : run.samples) {
    if (s.ok && s.due > run.kill_time && (first == 0 || s.done < first)) {
      first = s.done;
    }
  }
  if (first == 0 || run.kill_time == 0) return fault;
  fault.seen = true;
  fault.unavail_ms = to_ms(first - run.kill_time);
  std::size_t after = 0;
  for (const OpSample& s : run.samples) {
    if (s.ok && s.done >= first && s.done < run.window_end) ++after;
  }
  fault.post_fault_ops_s = ratio(static_cast<double>(after),
                                 static_cast<double>(run.window_end - first) /
                                     1e9);
  return fault;
}

/// Write latency as users see it: pooled over the clusters, or at the
/// low rung of the write-ladder.
Summary write_latency(const Workload& w, const std::vector<ClusterRun>& runs) {
  return summarize(w.rungs.empty() ? pooled_latencies_ms(runs, false)
                                   : latencies_ms(runs.front(), false));
}

/// The end-to-end metrics, from the untraced process clusters.
void end_to_end(Report& rep, const Workload& w,
                const std::vector<ClusterRun>& runs) {
  std::vector<double> setups;
  std::vector<double> rss;  // per cluster: the largest node
  double cpu_ms = 0.0;
  double ops = 0.0;
  double done_in_window = 0.0;
  double window = 0.0;
  for (const ClusterRun& run : runs) {
    setups.push_back(run.setup_s);
    ops += static_cast<double>(run.counters.writes_ok + run.counters.reads_ok);
    done_in_window += static_cast<double>(run.counters.window_done);
    window += window_s(run);
    double largest = 0.0;
    for (const NodeReport& node : run.nodes) {
      cpu_ms += node.cpu_ms;
      largest = std::max(largest, node.max_rss_mb);
    }
    rss.push_back(largest);
  }
  // write-ladder: write latency at the low rung; throughput is the rate
  // achieved at the ~70%-of-saturation rung (it falls below the offered
  // rate only when the cluster can no longer sustain it).
  // Its CPU cost is taken over the rungs up to that one: past saturation
  // the cost per op depends on how the overload unfolds (rejections,
  // catch-up).
  const Summary writes = write_latency(w, runs);
  double throughput = ratio(done_in_window, window);
  if (!w.rungs.empty()) {
    throughput = eval_rung(runs.at(w.high_rung)).achieved;
    cpu_ms = 0.0;
    ops = 0.0;
    for (std::size_t i = 0; i <= w.high_rung; ++i) {
      for (const NodeReport& node : runs[i].nodes) cpu_ms += node.cpu_ms;
      ops += static_cast<double>(runs[i].counters.writes_ok);
    }
  }
  for (const ClusterRun& run : runs) {
    if (w.rungs.empty()) break;
    const Rung rung = eval_rung(run);
    std::printf("rung %.0f ops/s: achieved %.1f ops/s, p50 %.2f ms, p99 %.2f "
                "ms, %.2f%% answered in time, %llu retries, %llu rejected -> "
                "%s\n",
                run.rate, rung.achieved, rung.latency.p50, rung.latency.p99,
                100.0 * rung.completed,
                static_cast<unsigned long long>(run.counters.retries),
                static_cast<unsigned long long>(run.counters.rejected),
                rung.pass ? "pass" : "fail");
  }
  std::printf("writes measured: %zu, p50 %.3f ms, p99 %.3f ms (highest "
              "percentile with 10 samples beyond it: p%g = %.3f ms)\n",
              writes.n, writes.p50, writes.p99, writes.tail_pct, writes.tail);
  rep.add("setup_s", median(setups), "s");
  rep.add("write_p50_ms", writes.p50, "ms");
  rep.add("throughput_ops_s", throughput, "ops/s");
  rep.add("cpu_ms_per_kop", ratio(cpu_ms, ops) * 1000.0, "ms/kop");
  rep.add("rss_mb", median(rss), "MB");
}

/// Per-layer metrics read from outside the nodes: --stats per-tag lines,
/// SMRLOG, /proc/<pid>/io, rusage, and the generator's own counters.
void outside_layers(Report& rep, const Workload& w,
                    const std::vector<ClusterRun>& runs) {
  double writes = 0.0, reads = 0.0, attempted = 0.0;
  double sends = 0.0, bytes = 0.0, syscw = 0.0, disk = 0.0, ctx = 0.0;
  double leader_cpu = 0.0, follower_cpu = 0.0, followers = 0.0;
  double cmds = 0.0, slots = 0.0, slots_used = 0.0;
  double retries = 0.0, rejected = 0.0;
  std::map<unsigned, double> tag_sends;
  std::vector<double> late;
  for (const ClusterRun& run : runs) {
    writes += static_cast<double>(run.counters.writes_ok);
    reads += static_cast<double>(run.counters.reads_ok);
    attempted += static_cast<double>(run.counters.attempted);
    retries += static_cast<double>(run.counters.retries);
    rejected += static_cast<double>(run.counters.rejected);
    bool counted_log = false;
    for (const NodeReport& node : run.nodes) {
      sends += static_cast<double>(node.sends);
      bytes += static_cast<double>(node.bytes);
      syscw += static_cast<double>(node.syscw);
      disk += static_cast<double>(node.write_bytes);
      ctx += static_cast<double>(node.ctx_switches);
      for (const auto& [tag, count] : node.tag_sends) {
        tag_sends[tag] += static_cast<double>(count);
      }
      if (node.id == 1) {
        leader_cpu += node.cpu_ms;
      } else {
        follower_cpu += node.cpu_ms;
        followers += 1.0;
      }
      slots_used = std::max(slots_used, static_cast<double>(node.slots));
      if (node.has_log && !counted_log) {
        cmds += static_cast<double>(node.cmds);
        slots += static_cast<double>(node.slots);
        counted_log = true;
      }
    }
    for (const OpSample& s : run.samples) late.push_back(to_ms(s.sent - s.due));
  }
  const auto per_write = [writes](double v) { return ratio(v, writes); };
  const auto tag = [&tag_sends](unsigned t) { return tag_sends[t]; };
  rep.add("net.sends_per_op", per_write(sends), "msgs/op");
  rep.add("net.bytes_per_op", per_write(bytes), "B/op");
  rep.add("net.consensus_sends_per_op", per_write(tag(tags::kSmr)), "msgs/op");
  rep.add("net.forward_sends_per_op", per_write(tag(tags::kSmrForward)),
          "msgs/op");
  rep.add("net.catchup_sends_per_op",
          per_write(tag(tags::kSmrHint) + tag(tags::kSmrPull) +
                    tag(tags::kSmrState)),
          "msgs/op");
  rep.add("net.ckpt_sends_per_op", per_write(tag(tags::kSmrCkpt)), "msgs/op");
  rep.add("net.read_sends_per_op",
          ratio(tag(tags::kSmrLease) + tag(tags::kSmrReadIndex), reads),
          "msgs/read");
  rep.add("net.write_syscalls_per_op", per_write(syscw), "calls/op");
  rep.add("smr.cmds_per_slot", ratio(cmds, slots), "cmds/slot");
  rep.add("smr.slots_used", slots_used, "slots");
  rep.add("store.disk_write_bytes_per_op", per_write(disk), "B/op");
  rep.add("node.leader_cpu_ms_per_kop", per_write(leader_cpu) * 1000.0,
          "ms/kop");
  rep.add("node.follower_cpu_ms_per_kop",
          per_write(ratio(follower_cpu, followers)) * 1000.0, "ms/kop");
  rep.add("node.ctx_switches_per_op", per_write(ctx), "switches/op");
  rep.add("client.retries_per_op", ratio(retries, attempted), "retries/op");
  rep.add("client.rejected_per_op", ratio(rejected, attempted), "rejects/op");
  rep.add("bench.gen_late_p99_ms", summarize(late).p99, "ms");

  // Workload-specific user-facing numbers (0 where a workload has none).
  double high_p99 = 0.0, max_rate = 0.0;
  if (!w.rungs.empty()) {
    high_p99 = eval_rung(runs.at(w.high_rung)).latency.p99;
    for (const ClusterRun& run : runs) {
      const Rung rung = eval_rung(run);
      if (rung.pass) max_rate = rung.achieved;
    }
  }
  const Summary read_lat = summarize(pooled_latencies_ms(runs, true));
  std::vector<double> unavail, post_fault;
  if (w.crash) {
    for (const ClusterRun& run : runs) {
      const Fault fault = eval_fault(run);
      if (!fault.seen) {
        rep.fail(w.name + ": no request due after the kill was answered");
        ++rep.failed;
        continue;
      }
      unavail.push_back(fault.unavail_ms);
      post_fault.push_back(fault.post_fault_ops_s);
    }
  }
  rep.add("write_p99_ms", write_latency(w, runs).p99, "ms");
  rep.add("write_p99_high_ms", high_p99, "ms");
  rep.add("read_p50_ms", read_lat.p50, "ms");
  rep.add("read_p99_ms", read_lat.p99, "ms");
  rep.add("max_rate_ops_s", max_rate, "ops/s");
  rep.add("unavail_ms", unavail.empty() ? 0.0 : median(unavail), "ms");
  rep.add("post_fault_ops_s", post_fault.empty() ? 0.0 : median(post_fault),
          "ops/s");
}

/// The traced run: the same workload against replicas hosted in this
/// process, split per stage and per layer from the recorded spans.
void traced_layers(Report& rep, const Args& a, const Workload& w,
                   std::int64_t measure, double untraced_write_p50) {
  const std::string where = w.name + " traced cluster";
  const std::string dir = a.workdir + "/" + w.name + "/traced";
  fs::remove_all(dir);
  fs::create_directories(dir);
  TracedConfig tc;
  tc.seed = a.seed;
  tc.suite = w.suite;
  tc.reads = w.reads;
  if (w.wal) tc.wal_root = dir;
  TracedCluster cluster(tc);
  cluster.start();
  LoadGen gen(cluster.client_endpoints(), probft::mix64(a.seed, 0x747261ULL),
              kClientBase);
  if (!gen.connect(now_ns() + 10 * kSec, {})) {
    throw std::runtime_error(where + ": cannot connect");
  }
  bring_up(gen, where);
  const double rate = w.rungs.empty() ? w.rate : w.rungs.front();
  offer(gen, w, rate, measure, [&cluster] { cluster.kill(1); });
  cluster.stop();

  std::vector<LogState> logs;
  for (std::uint32_t id = 1; id <= cluster.size(); ++id) {
    if (cluster.killed(id)) continue;
    const ReplicaSnapshot& snap = cluster.snapshot(id);
    logs.push_back(LogState{id, snap.slots, snap.cmds, snap.digest});
  }
  check_logs(rep, where, logs, gen.counters().writes_ok);
  count_ops(rep, where, gen.counters());

  // Stage split of each measured write, at the leader (replica 1):
  //   request_in  client send            → leader's client-handler entry
  //   queue_wait  submit_request         → leader's first Propose for the slot
  //   consensus   that Propose           → leader's on_execute
  //   reply_out   on_execute             → the client decodes the reply
  using OpKey = std::pair<std::uint64_t, std::uint64_t>;
  std::map<OpKey, std::int64_t> handled, submitted, executed;
  std::map<OpKey, std::uint64_t> slot_of;
  const Tracer& leader = cluster.tracer(1);
  for (const Span& s : leader.spans) {
    const OpKey key{s.a, s.b};
    if (s.kind == Kind::kClient && s.c == tags::kClientRequest) {
      handled.emplace(key, s.start);
    } else if (s.kind == Kind::kSubmit) {
      submitted.emplace(key, s.start);
    } else if (s.kind == Kind::kExecute) {
      executed.emplace(key, s.start);
      slot_of.emplace(key, s.c);
    }
  }
  std::array<std::vector<double>, 4> stages;
  std::vector<double> traced_writes;
  std::size_t split = 0, off = 0;
  for (const OpSample& s : gen.samples()) {
    if (s.read || !s.ok) continue;
    traced_writes.push_back(to_ms(s.done - s.due));
    const OpKey key{s.client, s.seq};
    const auto h = handled.find(key);
    const auto sub = submitted.find(key);
    const auto ex = executed.find(key);
    if (h == handled.end() || sub == submitted.end() || ex == executed.end()) {
      continue;  // served without the leader (after a crash)
    }
    const auto prop = leader.first_propose.find(slot_of[key]);
    if (prop == leader.first_propose.end()) continue;
    const std::array<std::int64_t, 4> d = {h->second - s.sent,
                                           prop->second - sub->second,
                                           ex->second - prop->second,
                                           s.done - ex->second};
    const double latency = to_ms(s.done - s.sent);
    const double sum = to_ms(d[0] + d[1] + d[2] + d[3]);
    ++split;
    if (*std::min_element(d.begin(), d.end()) < 0 ||
        std::abs(sum - latency) >
            kStageToleranceMs + kStageToleranceFrac * latency) {
      ++off;
    }
    for (std::size_t i = 0; i < 4; ++i) stages[i].push_back(to_ms(d[i]));
  }
  std::printf("traced writes: %zu, split into stages: %zu, off by more than "
              "%.2f ms + %.0f%%: %zu\n",
              traced_writes.size(), split, kStageToleranceMs,
              kStageToleranceFrac * 100.0, off);
  if (split == 0) {
    rep.fail(where + ": no measured write has all four stage marks");
  } else if (off > 0) {
    rep.fail(where + ": the stage split misses the latency of " +
             std::to_string(off) + " of " + std::to_string(split) + " writes");
  }

  // Per-layer totals over every replica's spans. Self time is a span's
  // duration minus its children's; loop self time is the loop thread's CPU
  // time minus the CPU time it spent inside top-level (handler and timer)
  // spans — poll, framing, flushing.
  struct Totals {
    double calls = 0.0;
    double ns = 0.0;
    double items = 0.0;
  };
  std::array<Totals, static_cast<std::size_t>(Kind::kCount)> totals{};
  double peer_self_ns = 0.0, loop_self_ns = 0.0;
  double arms = 0.0, fires = 0.0, vc_sends = 0.0, frames = 0.0, flushes = 0.0;
  std::uint64_t dropped = 0;
  for (std::uint32_t id = 1; id <= cluster.size(); ++id) {
    const Tracer& t = cluster.tracer(id);
    std::vector<std::int64_t> child(t.spans.size(), 0);
    for (const Span& s : t.spans) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      const auto dur = static_cast<double>(s.end - s.start);
      Totals& k = totals[static_cast<std::size_t>(s.kind)];
      k.calls += 1.0;
      k.ns += dur;
      if (s.kind == Kind::kBatch) k.items += static_cast<double>(s.a);
      if (s.kind == Kind::kPeer) {
        peer_self_ns += dur - static_cast<double>(child[i]);
      }
    }
    const ReplicaSnapshot& snap = cluster.snapshot(id);
    if (snap.taken) {
      loop_self_ns += static_cast<double>(snap.thread_cpu_ns - t.top_cpu_ns);
      frames += static_cast<double>(snap.frames_flushed);
      flushes += static_cast<double>(snap.flush_syscalls);
    }
    arms += static_cast<double>(t.timer_arms);
    fires += static_cast<double>(t.timer_fires);
    vc_sends += static_cast<double>(t.view_change_sends);
    dropped += t.dropped;
  }
  if (dropped > 0) rep.fail(where + ": " + std::to_string(dropped) + " spans dropped");
  const std::string spans_path = dir + "/spans.csv";
  if (!cluster.write_spans(spans_path)) rep.fail("cannot write " + spans_path);

  const double writes = static_cast<double>(gen.counters().writes_ok);
  const double reads = static_cast<double>(gen.counters().reads_ok);
  const auto per_write = [writes](double v) { return ratio(v, writes); };
  const auto calls = [&](Kind k) {
    return per_write(totals[static_cast<std::size_t>(k)].calls);
  };
  const auto us = [&](Kind k) {
    return per_write(totals[static_cast<std::size_t>(k)].ns / 1e3);
  };
  const char* const stage_names[4] = {"request_in", "queue_wait", "consensus",
                                      "reply_out"};
  for (std::size_t i = 0; i < 4; ++i) {
    const Summary sm = summarize(stages[i]);
    rep.add(std::string("stage.") + stage_names[i] + "_p50_ms", sm.p50, "ms");
    rep.add(std::string("stage.") + stage_names[i] + "_p99_ms", sm.p99, "ms");
  }
  const std::pair<const char*, Kind> crypto_kinds[] = {
      {"sign", Kind::kSign},
      {"verify", Kind::kVerify},
      {"vrf_prove", Kind::kVrfProve},
      {"vrf_verify", Kind::kVrfVerify}};
  for (const auto& [name, kind] : crypto_kinds) {
    rep.add(std::string("crypto.") + name + "_calls_per_op", calls(kind),
            "calls/op");
    rep.add(std::string("crypto.") + name + "_us_per_op", us(kind), "us/op");
  }
  rep.add("crypto.batch_calls_per_op", calls(Kind::kBatch), "calls/op");
  rep.add("crypto.batch_sigs_per_op",
          per_write(totals[static_cast<std::size_t>(Kind::kBatch)].items),
          "sigs/op");
  rep.add("crypto.batch_us_per_op", us(Kind::kBatch), "us/op");
  rep.add("smr.on_message_calls_per_op", calls(Kind::kPeer), "calls/op");
  rep.add("smr.on_message_self_us_per_op", per_write(peer_self_ns / 1e3),
          "us/op");
  rep.add("smr.submit_us_per_op", us(Kind::kSubmit), "us/op");
  rep.add("smr.read_us_per_read",
          ratio(totals[static_cast<std::size_t>(Kind::kRead)].ns / 1e3, reads),
          "us/read");
  const ReplicaSnapshot& lead = cluster.snapshot(1);
  rep.add("smr.lease_read_frac",
          ratio(static_cast<double>(lead.lease_reads),
                static_cast<double>(lead.reads_served)),
          "frac");
  rep.add("core.view_change_sends_per_op", per_write(vc_sends), "msgs/op");
  rep.add("sync.timer_arms_per_op", per_write(arms), "arms/op");
  rep.add("sync.timer_fires_per_op", per_write(fires), "fires/op");
  rep.add("net.loop_self_us_per_op", per_write(loop_self_ns / 1e3), "us/op");
  rep.add("net.send_us_per_op", us(Kind::kSend), "us/op");
  rep.add("net.frames_per_flush", ratio(frames, flushes), "frames/call");
  rep.add("trace.overhead_frac",
          ratio(summarize(traced_writes).p50, untraced_write_p50) - 1.0,
          "frac");
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_report(const Report& rep) {
  for (const Metric& m : rep.metrics) {
    std::printf("%-36s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += rep.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  const std::vector<Workload> workloads = all_workloads();
  const auto it = std::find_if(
      workloads.begin(), workloads.end(),
      [&a](const Workload& w) { return w.name == a.workload; });
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  const Workload& w = *it;
  if (const std::string why = check_percentile_helper(); !why.empty()) {
    std::fprintf(stderr, "perfbench: self-check failed: %s\n", why.c_str());
    return 2;
  }
  const auto total = static_cast<std::int64_t>(a.seconds * 1e9);
  Report rep;
  std::vector<ClusterRun> runs;
  std::int64_t per_cluster = 0;
  // One unmeasured cluster first: the first cluster of a run meets a cold
  // host (page cache, CPU clock ramp), which no measured cluster should see.
  {
    Workload warm = w;
    warm.crash = false;
    const double rate = w.rungs.empty() ? w.rate : w.rungs.at(w.high_rung);
    run_process_cluster(a, warm, -1, rate, kWarmHost, rep);
  }
  if (!w.rungs.empty()) {
    // Highest rung first, so the low rung runs on the warmest host.
    per_cluster = total / static_cast<std::int64_t>(w.rungs.size());
    for (std::size_t i = w.rungs.size(); i-- > 0;) {
      const double rate = w.rungs[i];
      const auto window = std::min(
          per_cluster, static_cast<std::int64_t>(kMaxRungOps / rate * 1e9));
      runs.push_back(
          run_process_cluster(a, w, static_cast<int>(i), rate, window, rep));
    }
    std::reverse(runs.begin(), runs.end());
  } else {
    per_cluster = total / w.clusters;
    for (int i = 0; i < w.clusters; ++i) {
      runs.push_back(run_process_cluster(a, w, i, w.rate, per_cluster, rep));
    }
  }
  Report e2e;
  end_to_end(e2e, w, runs);
  if (!a.trace) {
    rep.metrics = e2e.metrics;
  } else {
    outside_layers(rep, w, runs);
    traced_layers(rep, a, w, per_cluster, write_latency(w, runs).p50);
    rep.add("failed_ops_frac",
            ratio(static_cast<double>(rep.failed),
                  static_cast<double>(rep.attempted)),
            "frac");
  }
  print_report(rep);
  return rep.errors.empty() ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--node") {
      a.node_bin = value;
    } else if (key == "--workdir") {
      a.workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.node_bin.empty() &&
         !a.workdir.empty() && a.seconds > 0.0;
}

extern "C" void on_stop_signal(int /*sig*/) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: e2e_bench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --node PATH --workdir DIR\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
