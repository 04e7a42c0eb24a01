// Cluster harness: builds a full simulated deployment of one protocol
// (ProBFT / PBFT / HotStuff) with per-replica behaviors, wires everything
// to the deterministic network, runs it, and exposes the outcome.
//
// This is the workhorse behind the protocol integration tests, the examples
// and the Figure 1/5 benches.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/replica.hpp"
#include "crypto/suite.hpp"
#include "hotstuff/hotstuff_replica.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"
#include "net/transport.hpp"
#include "pbft/pbft_replica.hpp"
#include "sim/byzantine.hpp"
#include "sim/node_factory.hpp"
#include "sync/synchronizer.hpp"

namespace probft::sim {

enum class Behavior {
  kHonest,
  kSilent,             // crash-like: never sends anything
  kEquivocateLeader,   // ProBFT: view-1 leader sending split proposals
  kColludeFollower,    // ProBFT: Fig. 4c colluding Byzantine follower
  kFlood,              // ProBFT: forged-sample flooding attacker
};

struct ClusterConfig {
  Protocol protocol = Protocol::kProbft;
  std::uint32_t n = 4;
  std::uint32_t f = 0;     // number of Byzantine replicas (for quorum math)
  double o = 1.7;          // ProBFT sample factor
  double l = 2.0;          // ProBFT quorum factor
  std::uint64_t seed = 1;
  net::LatencyConfig latency;
  sync::SyncConfig sync;
  /// Crypto suite; nullptr selects the fast SimSuite.
  const crypto::CryptoSuite* suite = nullptr;
  /// ProBFT verification fast path (content-addressed verdict cache +
  /// batch signature verification); disable for fast-vs-slow determinism
  /// comparisons and the view-change benches.
  bool fast_verify = true;
  /// Per-replica behavior, 1-based; missing entries default to kHonest.
  std::vector<Behavior> behaviors;
  /// Equivocation attack setup (used by kEquivocateLeader/kColludeFollower).
  SplitStrategy split = SplitStrategy::kOptimal;
  Bytes attack_value_a;
  Bytes attack_value_b;
};

struct DecisionRecord {
  ReplicaId replica = 0;
  View view = 0;
  Bytes value;
  TimePoint at = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts every node (leader of view 1 proposes, timers arm, ...).
  void start();

  /// Runs until every correct replica decided, the event queue drained, or
  /// `deadline` / `max_events` hit. Returns true iff all correct decided.
  bool run_to_completion(TimePoint deadline = 120'000'000,
                         std::size_t max_events = 50'000'000);

  // ---- accessors ----
  [[nodiscard]] net::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

  [[nodiscard]] std::vector<ReplicaId> correct_ids() const;
  [[nodiscard]] bool is_byzantine(ReplicaId id) const;
  [[nodiscard]] bool all_correct_decided() const;
  [[nodiscard]] std::size_t correct_decided_count() const;
  /// Distinct values decided by correct replicas (agreement <=> size <= 1).
  [[nodiscard]] std::set<Bytes> decided_values() const;
  [[nodiscard]] bool agreement_ok() const { return decided_values().size() <= 1; }
  [[nodiscard]] const std::vector<DecisionRecord>& decisions() const {
    return decisions_;
  }

  /// Typed access to honest replicas (nullptr for Byzantine slots or other
  /// protocols).
  [[nodiscard]] const core::Replica* probft(ReplicaId id) const;
  [[nodiscard]] const pbft::PbftReplica* pbft(ReplicaId id) const;
  [[nodiscard]] const hotstuff::HotStuffReplica* hotstuff(ReplicaId id) const;

  [[nodiscard]] const crypto::CryptoSuite& suite() const { return *suite_; }
  [[nodiscard]] const std::vector<crypto::KeyPair>& keys() const {
    return keys_.pairs;
  }

 private:
  void build_nodes();
  [[nodiscard]] Behavior behavior_of(ReplicaId id) const;

  ClusterConfig cfg_;
  std::unique_ptr<crypto::CryptoSuite> owned_suite_;
  const crypto::CryptoSuite* suite_ = nullptr;
  net::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  FleetKeys keys_;
  std::vector<std::unique_ptr<core::INode>> nodes_;  // 1-based
  std::shared_ptr<const AttackPlan> plan_;
  std::vector<DecisionRecord> decisions_;
  std::vector<bool> decided_;  // per replica, 1-based
  // Decided-counter pair so the run loop's completion check is O(1) per
  // event instead of an O(n) scan — at n = 2000 the scan dominated runs.
  std::size_t correct_total_ = 0;
  std::size_t correct_decided_ = 0;
};

}  // namespace probft::sim
