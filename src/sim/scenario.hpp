// Declarative scenario conformance harness.
//
// A ScenarioSpec names everything that defines one experiment — protocol,
// cluster size, fault injection, latency/partition model, and the seeds to
// sweep — and the harness turns it into ClusterConfigs, runs the cluster,
// and reports uniform outcomes (termination, agreement, decision
// transcript). This is the single source of truth for scenario → cluster
// wiring; examples/scenario_runner.cpp and the protocol tests build on it
// instead of duplicating per-protocol config code.
//
// The matrix runner executes the cross-product protocols × faults × seeds
// (skipping combinations where a fault does not apply to a protocol) so
// conformance tests can assert the paper's agreement/termination claims
// uniformly across ProBFT, PBFT and HotStuff.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cluster.hpp"

namespace probft::sim {

/// Fault injected into a scenario. Faults are descriptions, not per-replica
/// behavior vectors; the harness derives the vector from (fault, n, f).
enum class Fault {
  kNone,               // all replicas honest
  kSilentLeader,       // the view-1 leader crashes
  kSilentFollowers,    // the f highest-id replicas crash
  kEquivocate,         // Fig. 4c optimal-split: leader + f-1 colluders
  kFlood,              // one replica floods forged-sample messages
  kPartitionUntilGst,  // network splits in half until GST, then heals
  kChurnRecovery,      // f replicas crash (network-dead) and rejoin
  kAsymmetricPartition,  // until GST half A hears half B but not vice versa
  kReorderAdversary,   // adversarial per-link message reordering
  kAdaptiveLeader,     // adversary corrupts each new view's leader (budget f)
  kKillRestart,        // SMR only: kill one replica mid-run, restart it from
                       // its write-ahead log (crash-restart durability)
};

/// Latency presets over net::LatencyConfig.
enum class LatencyModel {
  kSynchronous,       // GST = 0: every message within Δ
  kPartialSynchrony,  // adversarial delays (and held messages) before GST
  kLossyDuplicating,  // partial synchrony plus duplicate deliveries
};

/// What the cluster is asked to do. kSingleShot decides one value per
/// replica (the original conformance shape); kSmr drives a pipelined SMR
/// fleet through a client workload and asserts identical logs — the
/// conformance bar moves from "one agreed value" to "one agreed log".
/// kSmrReads is kSmr with the read fast path enabled: after the write
/// workload completes, every up replica answers a known key at all three
/// consistency levels and the outcome counts stale/rejected reads (the
/// pinned invariant is stale_reads == 0 under every supported fault).
enum class Workload {
  kSingleShot,
  kSmr,
  kSmrReads,
};

struct ScenarioSpec {
  Protocol protocol = Protocol::kProbft;
  std::uint32_t n = 4;
  std::uint32_t f = 0;
  double o = 1.7;  // ProBFT sample factor
  double l = 2.0;  // ProBFT quorum factor
  Fault fault = Fault::kNone;
  LatencyModel latency = LatencyModel::kSynchronous;
  Workload workload = Workload::kSingleShot;
  /// SMR workload shape: pipeline/batching options and how many client
  /// requests the harness submits (in two waves, so replicas cut off by a
  /// partition or churn outage see fresh traffic after healing).
  smr::SmrOptions smr;
  std::uint64_t smr_commands = 12;
  std::vector<std::uint64_t> seeds = {1};
  TimePoint deadline = 120'000'000;      // virtual μs
  /// Whether the spec expects every correct replica to decide. Faults that
  /// exceed the protocol's tolerance can set this to false and the matrix
  /// will only assert agreement (safety), not termination.
  bool expect_termination = true;
};

/// Uniform per-run outcome, one per (spec, seed).
struct ScenarioOutcome {
  std::uint64_t seed = 0;
  bool terminated = false;  // all correct replicas decided in time
  bool agreement = false;   // correct replicas decided ≤ 1 distinct value
  std::size_t decided = 0;
  std::size_t correct = 0;
  View max_view = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;  // simulator events executed by the run
  TimePoint last_decision_at = 0;
  /// Canonical decision transcript: one "replica view valuehex at" line per
  /// decision in decision order. Equal transcripts ⇔ bit-identical runs,
  /// which is what the seed-determinism regression tests compare.
  std::string transcript;
  /// Read-phase accounting (Workload::kSmrReads only; zero otherwise).
  /// A "stale" read is an executed linearizable/sequential reply whose
  /// value is not the workload's known write — replicas that legitimately
  /// cannot serve (view gap after WAL/checkpoint recovery, no quorum)
  /// answer kRejected instead, which is counted but never stale.
  std::uint64_t reads_attempted = 0;
  std::uint64_t reads_executed = 0;
  std::uint64_t reads_rejected = 0;
  std::uint64_t stale_reads = 0;
};

struct ScenarioResult {
  ScenarioSpec spec;
  std::vector<ScenarioOutcome> outcomes;  // parallel to spec.seeds
};

[[nodiscard]] const char* to_string(Protocol protocol);
[[nodiscard]] const char* to_string(Fault fault);
[[nodiscard]] const char* to_string(LatencyModel model);
[[nodiscard]] const char* to_string(Workload workload);

/// Every protocol / fault in a stable order — the single enumeration the
/// matrix builders, CLI parsers and sweeps iterate, so adding an
/// enumerator means extending exactly one list (plus its to_string case).
[[nodiscard]] const std::vector<Protocol>& all_protocols();
[[nodiscard]] const std::vector<Fault>& all_faults();

/// Parses a protocol / fault name (the to_string spelling); returns false on
/// unknown input. Used by CLI front-ends.
bool protocol_from_string(const std::string& text, Protocol& out);
bool fault_from_string(const std::string& text, Fault& out);
bool workload_from_string(const std::string& text, Workload& out);

/// "probft/n32f3/equivocate/partial-synchrony" — stable id for reports.
[[nodiscard]] std::string scenario_name(const ScenarioSpec& spec);

/// The canonical conformance shape shared by the matrix test, the
/// determinism tests and the scenario-runner CLI defaults: n = 16, f = 3
/// with l = 1.5, so the ProBFT quorum (q = ⌈1.5·√16⌉ = 6) stays below the
/// 13 correct senders and every fault within tolerance can form quorums.
[[nodiscard]] ScenarioSpec conformance_base_spec();

/// Whether a fault can be injected under a protocol (equivocate/flood craft
/// ProBFT-format messages, so they only apply there) and cluster shape
/// (silent-followers and equivocate need f ≥ 1). An SMR workload runs
/// ProBFT only, and its fault must be realizable against a fleet
/// (smr_fault_supported).
[[nodiscard]] bool fault_applicable(const ScenarioSpec& spec);

/// Faults realizable against an SMR fleet: crash shapes and network
/// faults (silent followers, churn, partitions, reordering). The
/// ProBFT-format attack traffic (equivocate/flood) and the adaptive
/// leader corruption target single-shot wire tags and stay single-shot.
[[nodiscard]] bool smr_fault_supported(Fault fault);

/// Default termination expectation for a fault: active Byzantine attacks
/// can stall progress (the paper only claims agreement under them), every
/// benign fault must terminate.
[[nodiscard]] bool fault_expects_termination(Fault fault);

/// Expands the latency preset.
[[nodiscard]] net::LatencyConfig make_latency_config(LatencyModel model);

/// Translates (spec, seed) into the ClusterConfig the Cluster consumes —
/// behavior vector, attack split, latency model, quorum parameters.
[[nodiscard]] ClusterConfig make_cluster_config(const ScenarioSpec& spec,
                                                std::uint64_t seed);

/// Same, then overrides the timing knobs — integration tests keep their
/// historical latency/timeout settings while the fault shape still comes
/// from the spec.
[[nodiscard]] ClusterConfig make_cluster_config(
    const ScenarioSpec& spec, std::uint64_t seed,
    const sync::SyncConfig& sync, const net::LatencyConfig& latency);

/// Runs one (spec, seed) experiment to completion. Dispatches on
/// spec.workload: kSingleShot builds a Cluster, the SMR workloads run
/// run_scenario_smr.
[[nodiscard]] ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                                           std::uint64_t seed);

/// The SMR workload run path: n smr::SmrReplica nodes over the simulated
/// network, a two-wave client workload of spec.smr_commands requests
/// (including a cross-replica retry that must execute once), fault
/// filters from the spec. `terminated` means every correct replica
/// executed the full workload; `agreement` means correct replicas' slot
/// logs are prefix-consistent; the transcript is one log-digest line per
/// replica.
[[nodiscard]] ScenarioOutcome run_scenario_smr(const ScenarioSpec& spec,
                                               std::uint64_t seed);

/// Runs every seed of one spec.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Cross-product builder: one spec per applicable (protocol, fault) pair,
/// each carrying the full seed list. `base` supplies n/f/o/l/latency/
/// deadline; termination expectations are derived per combination.
[[nodiscard]] std::vector<ScenarioSpec> expand_matrix(
    const std::vector<Protocol>& protocols, const std::vector<Fault>& faults,
    const std::vector<std::uint64_t>& seeds, const ScenarioSpec& base);

/// Runs every spec in order.
[[nodiscard]] std::vector<ScenarioResult> run_matrix(
    const std::vector<ScenarioSpec>& specs);

}  // namespace probft::sim
