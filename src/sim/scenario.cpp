#include "sim/scenario.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "sim/smr_fleet.hpp"

namespace probft::sim {

const char* to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kProbft: return "probft";
    case Protocol::kPbft: return "pbft";
    case Protocol::kHotStuff: return "hotstuff";
  }
  return "?";
}

const char* to_string(Fault fault) {
  switch (fault) {
    case Fault::kNone: return "happy";
    case Fault::kSilentLeader: return "silent-leader";
    case Fault::kSilentFollowers: return "silent-f";
    case Fault::kEquivocate: return "equivocate";
    case Fault::kFlood: return "flood";
    case Fault::kPartitionUntilGst: return "partition";
    case Fault::kChurnRecovery: return "churn";
    case Fault::kAsymmetricPartition: return "asym-partition";
    case Fault::kReorderAdversary: return "reorder";
    case Fault::kAdaptiveLeader: return "adaptive-leader";
    case Fault::kKillRestart: return "kill-restart";
  }
  return "?";
}

const char* to_string(LatencyModel model) {
  switch (model) {
    case LatencyModel::kSynchronous: return "synchronous";
    case LatencyModel::kPartialSynchrony: return "partial-synchrony";
    case LatencyModel::kLossyDuplicating: return "lossy-duplicating";
  }
  return "?";
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kSingleShot: return "single-shot";
    case Workload::kSmr: return "smr";
    case Workload::kSmrReads: return "smr-reads";
  }
  return "?";
}

bool workload_from_string(const std::string& text, Workload& out) {
  for (const Workload w :
       {Workload::kSingleShot, Workload::kSmr, Workload::kSmrReads}) {
    if (text == to_string(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const std::vector<Protocol>& all_protocols() {
  static const std::vector<Protocol> kProtocols = {
      Protocol::kProbft, Protocol::kPbft, Protocol::kHotStuff};
  return kProtocols;
}

const std::vector<Fault>& all_faults() {
  static const std::vector<Fault> kFaults = {
      Fault::kNone,          Fault::kSilentLeader,
      Fault::kSilentFollowers, Fault::kEquivocate,
      Fault::kFlood,         Fault::kPartitionUntilGst,
      Fault::kChurnRecovery, Fault::kAsymmetricPartition,
      Fault::kReorderAdversary, Fault::kAdaptiveLeader,
      Fault::kKillRestart};
  return kFaults;
}

bool protocol_from_string(const std::string& text, Protocol& out) {
  for (const Protocol p : all_protocols()) {
    if (text == to_string(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

bool fault_from_string(const std::string& text, Fault& out) {
  for (const Fault f : all_faults()) {
    if (text == to_string(f)) {
      out = f;
      return true;
    }
  }
  return false;
}

std::string scenario_name(const ScenarioSpec& spec) {
  std::ostringstream name;
  name << to_string(spec.protocol) << "/n" << spec.n << "f" << spec.f << "/"
       << to_string(spec.fault) << "/" << to_string(spec.latency);
  if (spec.workload != Workload::kSingleShot) {
    name << "/" << to_string(spec.workload);
  }
  return name.str();
}

ScenarioSpec conformance_base_spec() {
  ScenarioSpec base;
  base.n = 16;
  base.f = 3;
  base.o = 1.7;
  base.l = 1.5;
  base.latency = LatencyModel::kSynchronous;
  base.deadline = 600'000'000;  // 600 s virtual
  return base;
}

bool smr_fault_supported(Fault fault) {
  switch (fault) {
    case Fault::kNone:
    case Fault::kSilentFollowers:
    case Fault::kChurnRecovery:
    case Fault::kPartitionUntilGst:
    case Fault::kAsymmetricPartition:
    case Fault::kReorderAdversary:
    case Fault::kKillRestart:
      return true;
    case Fault::kSilentLeader:  // group views rotate internally; the
                                // "view-1 leader" crash is silent-followers
                                // shaped at the fleet level
    case Fault::kEquivocate:
    case Fault::kFlood:
    case Fault::kAdaptiveLeader:
      return false;
  }
  return false;
}

bool fault_applicable(const ScenarioSpec& spec) {
  // The SMR engine is ProBFT's; an SMR run ignores spec.protocol.
  if (spec.workload != Workload::kSingleShot &&
      (spec.protocol != Protocol::kProbft ||
       !smr_fault_supported(spec.fault))) {
    return false;
  }
  switch (spec.fault) {
    case Fault::kNone:
      return true;
    case Fault::kSilentLeader:
      return spec.f >= 1;
    case Fault::kSilentFollowers:
      return spec.f >= 1;
    case Fault::kEquivocate:
      // The equivocating leader crafts Propose-format messages that ProBFT
      // and PBFT replicas parse; HotStuff uses a different proposal path.
      return (spec.protocol == Protocol::kProbft ||
              spec.protocol == Protocol::kPbft) &&
             spec.f >= 1;
    case Fault::kFlood:
      // Forged-sample flooding targets the VRF sample check (§3.1).
      return spec.protocol == Protocol::kProbft && spec.f >= 1;
    case Fault::kPartitionUntilGst:
      return spec.n >= 2;
    case Fault::kChurnRecovery:
      // The fault budget doubles as the churn victim count.
      return spec.f >= 1 && spec.n >= 2;
    case Fault::kAsymmetricPartition:
      return spec.n >= 2;
    case Fault::kReorderAdversary:
      return true;
    case Fault::kAdaptiveLeader:
      // The corruption budget is the fault budget f.
      return spec.f >= 1;
    case Fault::kKillRestart:
      // Crash-restart durability only exists at the SMR layer (the WAL
      // lives under the replicated log); single-shot runs have no
      // persistent state to recover.
      return spec.workload != Workload::kSingleShot && spec.n >= 2;
  }
  return false;
}

bool fault_expects_termination(Fault fault) {
  // Churn victims recover, the asymmetric partition heals at GST and the
  // reordering adversary only stretches delays within a bound — all three
  // are benign for liveness, like the crash/partition faults. Active
  // Byzantine attacks — equivocation, flooding and adaptive leader
  // corruption — can stall progress (and an adaptively corrupted replica
  // never decides), so only agreement is asserted for them.
  return fault != Fault::kEquivocate && fault != Fault::kFlood &&
         fault != Fault::kAdaptiveLeader;
}

net::LatencyConfig make_latency_config(LatencyModel model) {
  net::LatencyConfig latency;
  switch (model) {
    case LatencyModel::kSynchronous:
      break;  // defaults: GST = 0, delays within [1ms, 10ms]
    case LatencyModel::kPartialSynchrony:
      latency.gst = 300'000;  // 300 ms of adversarial scheduling
      latency.max_delay_pre = 200'000;
      latency.hold_until_gst_prob = 0.05;
      break;
    case LatencyModel::kLossyDuplicating:
      latency.gst = 300'000;
      latency.max_delay_pre = 200'000;
      latency.hold_until_gst_prob = 0.10;
      latency.duplicate_prob = 0.10;
      break;
  }
  return latency;
}

ClusterConfig make_cluster_config(const ScenarioSpec& spec,
                                  std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.protocol = spec.protocol;
  cfg.n = spec.n;
  cfg.f = spec.f;
  cfg.o = spec.o;
  cfg.l = spec.l;
  cfg.seed = seed;
  cfg.latency = make_latency_config(spec.latency);
  cfg.behaviors.assign(spec.n, Behavior::kHonest);

  switch (spec.fault) {
    case Fault::kNone:
    case Fault::kPartitionUntilGst:
    case Fault::kChurnRecovery:        // honest victims; dropped at the net
    case Fault::kAsymmetricPartition:  // realized as a network filter
    case Fault::kAdaptiveLeader:       // realized as a stateful filter
    case Fault::kKillRestart:          // realized in the SMR run path
      break;
    case Fault::kReorderAdversary:
      cfg.latency.reorder_prob = 0.3;
      cfg.latency.reorder_delay_max = 50'000;  // Δ' = Δ + 50 ms
      break;
    case Fault::kSilentLeader:
      cfg.behaviors[0] = Behavior::kSilent;  // leader(1) = replica 1
      break;
    case Fault::kSilentFollowers:
      for (std::uint32_t i = 0; i < spec.f && i < spec.n; ++i) {
        cfg.behaviors[spec.n - 1 - i] = Behavior::kSilent;
      }
      break;
    case Fault::kEquivocate:
      cfg.split = SplitStrategy::kOptimal;
      cfg.behaviors[0] = Behavior::kEquivocateLeader;
      for (std::uint32_t i = 1; i < spec.f && i < spec.n; ++i) {
        cfg.behaviors[i] = Behavior::kColludeFollower;
      }
      break;
    case Fault::kFlood:
      cfg.behaviors[spec.n - 1] = Behavior::kFlood;
      break;
  }

  if ((spec.fault == Fault::kPartitionUntilGst ||
       spec.fault == Fault::kAsymmetricPartition) &&
      cfg.latency.gst == 0) {
    cfg.latency.gst = 300'000;  // the partition needs a healing point
  }
  return cfg;
}

ClusterConfig make_cluster_config(const ScenarioSpec& spec,
                                  std::uint64_t seed,
                                  const sync::SyncConfig& sync,
                                  const net::LatencyConfig& latency) {
  ClusterConfig cfg = make_cluster_config(spec, seed);
  cfg.sync = sync;
  cfg.latency = latency;
  return cfg;
}

namespace {

/// Simulator events one run may fire before it counts as not terminated.
constexpr std::size_t kMaxEvents = 50'000'000;

/// Removes its directory (if set) when it goes out of scope — declared
/// before whatever holds files open inside it.
struct TempDir {
  std::filesystem::path path;
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

/// The wire tag only a view leader emits, per protocol — what the adaptive
/// adversary watches for.
std::vector<std::uint8_t> leadership_tags(Protocol protocol) {
  switch (protocol) {
    case Protocol::kProbft:
    case Protocol::kPbft:
      return {core::tag_byte(core::MsgTag::kPropose)};
    case Protocol::kHotStuff:
      return {static_cast<std::uint8_t>(hotstuff::HsTag::kProposal)};
  }
  return {};
}

std::string decision_transcript(const Cluster& cluster) {
  std::ostringstream out;
  for (const auto& d : cluster.decisions()) {
    out << d.replica << " " << d.view << " " << to_hex(d.value) << " "
        << d.at << "\n";
  }
  return out.str();
}

/// Realizes the network-level faults (partitions, churn, reordering,
/// adaptive corruption) as a filter on `network`. Shared by the
/// single-shot and SMR run paths so the fault semantics cannot drift
/// between workloads. `gst` is the healing point for the partition
/// shapes.
void apply_network_fault(net::Network& network, net::Simulator& sim,
                         const ScenarioSpec& spec, TimePoint gst,
                         std::uint64_t seed) {
  if (spec.fault == Fault::kPartitionUntilGst) {
    // Drop every cross-half message until GST; the scheduler heals after.
    const std::uint32_t half = spec.n / 2;
    auto* sim_ptr = &sim;
    network.set_filter(
        [half, gst, sim_ptr](ReplicaId from, ReplicaId to, std::uint8_t) {
          if (sim_ptr->now() >= gst) return false;
          return (from <= half) != (to <= half);
        });
  } else if (spec.fault == Fault::kAsymmetricPartition) {
    // One-directional outage: until GST, half B never hears half A (A→B
    // dropped) while B→A flows normally. Heals at GST.
    const std::uint32_t half = spec.n / 2;
    auto* sim_ptr = &sim;
    network.set_filter(
        [half, gst, sim_ptr](ReplicaId from, ReplicaId to, std::uint8_t) {
          if (sim_ptr->now() >= gst) return false;
          return from <= half && to > half;
        });
  } else if (spec.fault == Fault::kChurnRecovery) {
    // f honest replicas go network-dead for a while and rejoin; messages
    // to or from a down replica are lost (crash + recovery model).
    // Outages may start at t = 0 so churn overlaps the first-view decision
    // phase (happy-path decisions land within ~20 virtual ms), and every
    // victim recovers before the deadline — otherwise a short --deadline-ms
    // would turn the benign fault into a spurious liveness failure.
    const TimePoint recover_by =
        std::min<TimePoint>(400'000, spec.deadline / 2);
    const auto plan = std::make_shared<const ChurnPlan>(
        ChurnPlan::make(spec.n, spec.f, seed, /*earliest=*/0, recover_by));
    auto* sim_ptr = &sim;
    network.set_filter(
        [plan, sim_ptr](ReplicaId from, ReplicaId to, std::uint8_t) {
          const TimePoint now = sim_ptr->now();
          return plan->is_down(from, now) || plan->is_down(to, now);
        });
  } else if (spec.fault == Fault::kAdaptiveLeader) {
    // The adversary corrupts each new view's leader as it rotates in
    // (budget f); corruption manifests as total silence from the victim.
    const auto adversary = std::make_shared<AdaptiveLeaderAdversary>(
        spec.n, spec.f, leadership_tags(spec.protocol));
    network.set_filter(
        [adversary](ReplicaId from, ReplicaId /*to*/, std::uint8_t tag) {
          return adversary->should_drop(from, tag);
        });
  }
}

}  // namespace

ScenarioOutcome run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  if (spec.workload != Workload::kSingleShot) {
    return run_scenario_smr(spec, seed);
  }
  Cluster cluster(make_cluster_config(spec, seed));
  apply_network_fault(cluster.network(), cluster.simulator(), spec,
                      cluster.config().latency.gst, seed);

  cluster.start();
  const bool done = cluster.run_to_completion(spec.deadline, kMaxEvents);

  ScenarioOutcome outcome;
  outcome.seed = seed;
  outcome.terminated = done;
  outcome.agreement = cluster.agreement_ok();
  outcome.decided = cluster.correct_decided_count();
  outcome.correct = cluster.correct_ids().size();
  outcome.messages = cluster.network().stats().sends;
  outcome.bytes = cluster.network().stats().bytes_sent;
  outcome.events = cluster.simulator().events_fired();
  for (const auto& d : cluster.decisions()) {
    outcome.max_view = std::max(outcome.max_view, d.view);
    outcome.last_decision_at = std::max(outcome.last_decision_at, d.at);
  }
  outcome.transcript = decision_transcript(cluster);
  return outcome;
}

ScenarioOutcome run_scenario_smr(const ScenarioSpec& spec,
                                 std::uint64_t seed) {
  const ClusterConfig cfg = make_cluster_config(spec, seed);

  // Crash shape: the f highest ids never start and their links are dead
  // (the fleet has no Byzantine node kinds — network faults and crashes
  // are what the SMR conformance dimension covers).
  std::vector<bool> down(spec.n + 1, false);
  if (spec.fault == Fault::kSilentFollowers) {
    for (std::uint32_t i = 0; i < spec.f && i < spec.n; ++i) {
      down[spec.n - i] = true;
    }
  }
  SmrFleetConfig fc;
  fc.n = spec.n;
  fc.f = spec.f;
  fc.o = spec.o;
  fc.l = spec.l;
  fc.seed = seed;
  fc.smr = spec.smr;
  fc.latency = cfg.latency;

  // Crash-restart shape: replica 2 is killed mid-run (node object
  // destroyed, exactly what a kill -9 looks like to the others) and later
  // reconstructed from its write-ahead logs. A small checkpoint interval
  // makes the fleet stabilize a checkpoint before the kill so recovery
  // starts from it rather than from genesis. The simulator only fakes the
  // crash (object teardown, not process death), so fsync buys nothing.
  const ReplicaId victim = spec.fault == Fault::kKillRestart ? 2 : 0;
  TempDir wal_dir;
  if (victim != 0) {
    fc.smr.checkpoint_interval = 2;
    wal_dir.path = std::filesystem::temp_directory_path() /
                   ("probft-kr-" + std::to_string(::getpid()) + "-" +
                    std::to_string(seed));
    std::filesystem::remove_all(wal_dir.path);
    fc.wal_dirs.resize(victim + 1);
    fc.wal_dirs[victim] = wal_dir.path.string();
  }
  const bool with_reads = spec.workload == Workload::kSmrReads;
  if (with_reads) {
    fc.smr.serve_reads = true;
    // Lease validity must be of the same order as the view-change
    // timeout: a promise defers wish/new-leader traffic for up to
    // duration + skew, and a deferral window far beyond the synchronizer
    // timeout lets later slots race ahead of a stalled one (their
    // batches execute first and the per-client dedup then supersedes the
    // stalled slot's requests). The defaults (2 s) are wall-clock knobs;
    // scale them to the harness's 100 ms virtual timeouts.
    fc.smr.lease_duration = 100'000;
    fc.smr.lease_skew = 25'000;
  }

  const std::uint64_t target = spec.smr_commands;
  std::size_t correct_total = 0;
  std::size_t done = 0;  // correct replicas that executed the full workload
  TimePoint last_execution_at = 0;
  fc.on_execute = [&done, &down, &last_execution_at, target](
                      SmrFleet& fleet, ReplicaId id,
                      const smr::ExecutedCommand&) {
    last_execution_at = fleet.sim().now();
    if (!down[id] && fleet.node(id).executed_commands() == target) {
      ++done;
    }
  };
  SmrFleet fleet(std::move(fc));
  net::Simulator& sim = fleet.sim();
  net::Network& network = fleet.network();
  for (ReplicaId id = 1; id <= spec.n; ++id) {
    if (!down[id]) ++correct_total;
  }

  if (victim != 0) {
    // Kill between the waves, restart before wave 2 lands: peers keep
    // deciding while the victim is gone, the restarted node recovers its
    // prefix from the WAL and backfills the rest via signed hints.
    sim.schedule_after(250'000, [&fleet, victim] { fleet.kill(victim); });
    sim.schedule_after(450'000, [&fleet, victim] { fleet.restart(victim); });
  }

  if (spec.fault == Fault::kSilentFollowers) {
    network.set_filter([&down](ReplicaId from, ReplicaId to, std::uint8_t) {
      return down[from] || down[to];
    });
  } else {
    apply_network_fault(network, sim, spec, cfg.latency.gst, seed);
  }

  // Two-wave client workload. Wave 2 lands after every benign outage
  // cleared (partitions heal at GST ≤ 300 ms, churn victims recover by
  // 400 ms), so replicas that missed wave 1 see fresh slot traffic, open
  // the missed slots and backfill them via decided-value hints/pulls.
  //
  // Client shape: the smr workload pipelines one client (9001) through
  // consecutive seqs — every pinned transcript was captured against it.
  // The reads workload instead gives each command its own client id:
  // lease promises legitimately delay view changes (a wish defers for up
  // to duration + skew), so a stalled slot can resolve empty after later
  // slots already executed — and a pipelined client's requeued low seqs
  // would then be superseded by its executed high seq under highest-seq
  // dedup. Distinct clients make delayed commands re-proposable instead
  // of droppable.
  const bool distinct_clients = with_reads;
  const ReplicaId entry2 = spec.n >= 2 ? 2 : 1;
  const ReplicaId entry3 = spec.n >= 3 ? 3 : 1;
  const std::uint64_t wave1 = (target + 1) / 2;
  const auto wave_client = [distinct_clients](std::uint64_t i) {
    return distinct_clients ? 9100 + i : 9001;
  };
  const auto wave_seq = [distinct_clients](std::uint64_t i) {
    return distinct_clients ? 1 : i;
  };
  sim.schedule_after(1'000, [&fleet, wave1, wave_client, wave_seq] {
    for (std::uint64_t i = 1; i <= wave1; ++i) {
      (void)fleet.node(1).submit_request(
          wave_client(i), wave_seq(i), to_bytes("cmd-" + std::to_string(i)));
    }
  });
  sim.schedule_after(500'000, [&fleet, wave1, target, entry2, entry3,
                               wave_client, wave_seq] {
    // A client retry of the first request against another replica: the
    // dedup table must keep it from executing twice.
    (void)fleet.node(entry3).submit_request(wave_client(1), wave_seq(1),
                                            to_bytes("cmd-1"));
    std::uint64_t next = wave1 + 1;
    if (next <= target) {
      // A second client entering at a non-leader replica (forwarded).
      (void)fleet.node(entry2).submit_request(9002, 1, to_bytes("cmd-w2"));
      ++next;
    }
    for (; next <= target; ++next) {
      (void)fleet.node(1).submit_request(
          wave_client(next - 1), wave_seq(next - 1),
          to_bytes("cmd-" + std::to_string(next - 1)));
    }
  });

  for (ReplicaId id = 1; id <= spec.n; ++id) {
    if (!down[id]) fleet.node(id).start();
  }
  (void)fleet.run_until([&] { return done >= correct_total; },
                        spec.deadline, kMaxEvents);

  // Read phase (Workload::kSmrReads): once the write workload completed,
  // every up replica answers the known first write at all three
  // consistency levels. The pinned invariant is freedom from stale
  // reads, not universal service — a replica that recovered over a view
  // gap (WAL snapshot, adopted checkpoint) answers kRejected by design,
  // and that is counted but never stale.
  ScenarioOutcome outcome;
  if (with_reads) {
    const Bytes expected = to_bytes("cmd-1");
    std::uint64_t reads_fired = 0;
    for (ReplicaId id = 1; id <= spec.n; ++id) {
      if (down[id] || !fleet.alive(id)) continue;
      for (const net::ReadConsistency mode :
           {net::ReadConsistency::kLinearizable,
            net::ReadConsistency::kSequential,
            net::ReadConsistency::kStaleOk}) {
        ++outcome.reads_attempted;
        fleet.node(id).submit_read(
            to_bytes("cmd-1"), mode, 0,
            [&reads_fired, &outcome, &expected,
             mode](const smr::SmrReplica::ReadResult& r) {
              ++reads_fired;
              if (r.status != net::ReplyStatus::kExecuted) {
                ++outcome.reads_rejected;
                return;
              }
              ++outcome.reads_executed;
              // Stale-ok makes no freshness promise; the other two do.
              if (mode != net::ReadConsistency::kStaleOk &&
                  r.value != expected) {
                ++outcome.stale_reads;
              }
            });
      }
    }
    (void)fleet.run_until(
        [&] { return reads_fired >= outcome.reads_attempted; },
        sim.now() + 5'000'000, kMaxEvents);
  }

  // Recount completion from replica state rather than trusting the
  // incremental counter: a replica that adopted a certified checkpoint
  // jumped past individual executions, so its on_execute callbacks never
  // saw the final count even though it holds the full workload.
  done = 0;
  for (ReplicaId id = 1; id <= spec.n; ++id) {
    if (down[id] || !fleet.alive(id)) continue;
    if (fleet.node(id).executed_commands() >= target) ++done;
  }

  outcome.seed = seed;
  outcome.terminated = done == correct_total;
  outcome.decided = done;
  outcome.correct = correct_total;
  outcome.messages = network.stats().sends;
  outcome.bytes = network.stats().bytes_sent;
  outcome.events = sim.events_fired();
  outcome.last_decision_at = last_execution_at;
  const FleetAgreement agreement = fleet.check_agreement(down);
  outcome.agreement = agreement.ok;
  outcome.transcript = agreement.transcript;
  return outcome;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.spec = spec;
  result.outcomes.reserve(spec.seeds.size());
  for (const std::uint64_t seed : spec.seeds) {
    result.outcomes.push_back(run_scenario(spec, seed));
  }
  return result;
}

std::vector<ScenarioSpec> expand_matrix(const std::vector<Protocol>& protocols,
                                        const std::vector<Fault>& faults,
                                        const std::vector<std::uint64_t>& seeds,
                                        const ScenarioSpec& base) {
  std::vector<ScenarioSpec> specs;
  for (const Protocol protocol : protocols) {
    for (const Fault fault : faults) {
      ScenarioSpec spec = base;
      spec.protocol = protocol;
      spec.fault = fault;
      spec.seeds = seeds;
      if (!fault_applicable(spec)) continue;
      spec.expect_termination = fault_expects_termination(fault);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::vector<ScenarioResult> run_matrix(const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    results.push_back(run_scenario(spec));
  }
  return results;
}

}  // namespace probft::sim
