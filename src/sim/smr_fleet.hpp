// Simulated SMR fleet: n shard::ShardedSmr nodes, each with its
// shard::DtxCoordinator, on one deterministic simulator and network.
//
// This is the one place the simulator wires an SMR deployment: keys
// from derive_keys, each node's config from smr_config, its I/O from
// transport_host — the same plumbing the node binary uses over sockets.
// The scenario runner's SMR workloads, the SMR benches, the smr_log
// example and the SMR test fleets all run on it.
//
// Beyond wiring, the fleet owns what every caller used to repeat: a
// bounded run-until loop, kill/restart of a node from its group WALs
// (timers a killed node scheduled are epoch-guarded and never fire into
// freed memory), and the per-group log agreement check.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "crypto/suite.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"
#include "shard/dtx.hpp"
#include "shard/sharded_smr.hpp"
#include "sim/node_factory.hpp"
#include "smr/smr_replica.hpp"
#include "store/wal.hpp"

namespace probft::sim {

class SmrFleet;

struct SmrFleetConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 0;
  double o = 1.7;  // ProBFT sample factor
  double l = 2.0;  // ProBFT quorum factor
  /// Seeds both the network's delay draws and the key derivation.
  std::uint64_t seed = 1;
  /// Consensus groups per node (1 = the single-group wire).
  std::uint32_t shards = 1;
  smr::SmrOptions smr;
  net::LatencyConfig latency;
  /// Optional per-node WAL directories (index = replica id; a missing or
  /// empty entry runs that node memory-only). A node's group WALs live
  /// there in the node binary's layout (shard::open_group_wals).
  std::vector<std::string> wal_dirs;
  bool wal_fsync = false;
  /// Called once per request any node executes, after its dtx
  /// coordinator saw it.
  std::function<void(SmrFleet&, ReplicaId, shard::ShardId,
                     const smr::ExecutedCommand&)>
      on_execute;
};

/// Outcome of SmrFleet::check_agreement.
struct FleetAgreement {
  bool ok = true;
  /// One "id [sS] executed slots base digest" line per live node and
  /// group ("id down" for excluded or killed nodes); the group is named
  /// only when there are several.
  std::string transcript;
};

class SmrFleet {
 public:
  /// Builds (but does not start) every node.
  explicit SmrFleet(SmrFleetConfig config);
  ~SmrFleet();

  SmrFleet(const SmrFleet&) = delete;
  SmrFleet& operator=(const SmrFleet&) = delete;

  /// Starts every live node.
  void start();

  /// Steps the simulator until `done()` holds; false once the deadline,
  /// the event budget (events fired since construction) or an empty
  /// queue comes first.
  bool run_until(const std::function<bool()>& done, TimePoint deadline,
                 std::uint64_t max_events =
                     std::numeric_limits<std::uint64_t>::max());
  /// Same, until every live node executed at least `commands` requests
  /// across its groups.
  bool run_until_executed(std::uint64_t commands, TimePoint deadline);
  [[nodiscard]] bool all_executed(std::uint64_t commands) const;

  /// Crash: the node and its coordinator are destroyed, its WALs closed
  /// and its pending timers disarmed. Peers see a silent replica.
  void kill(ReplicaId id);
  /// Rebuilds a killed node from its WAL directories (reopened from
  /// disk, as a restarted process would), rebuilds its dtx state from
  /// the recovered logs and starts it.
  void restart(ReplicaId id);

  /// Whether every live node holds the same chained log digest in every
  /// group (bit-identical histories).
  [[nodiscard]] bool logs_identical() const;
  /// Group by group, live nodes outside `excluded` (1-based flags) must
  /// hold agreeing slot logs wherever their retained ranges overlap the
  /// node that executed furthest, and the same chained digest when they
  /// executed equally far — logs may start at different bases once
  /// stable checkpoints truncate them.
  [[nodiscard]] FleetAgreement check_agreement(
      const std::vector<bool>& excluded = {}) const;

  // ---- accessors ----
  [[nodiscard]] net::Simulator& sim() { return sim_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const SmrFleetConfig& config() const { return cfg_; }
  [[nodiscard]] const crypto::CryptoSuite& suite() const { return *suite_; }
  [[nodiscard]] const FleetKeys& keys() const { return keys_; }
  [[nodiscard]] bool alive(ReplicaId id) const {
    return nodes_.at(id) != nullptr;
  }
  [[nodiscard]] shard::ShardedSmr& node(ReplicaId id) {
    return *nodes_.at(id);
  }
  [[nodiscard]] const shard::ShardedSmr& node(ReplicaId id) const {
    return *nodes_.at(id);
  }
  [[nodiscard]] shard::DtxCoordinator& dtx(ReplicaId id) {
    return *dtx_.at(id);
  }

 private:
  void build(ReplicaId id);
  void open_wals(ReplicaId id);
  [[nodiscard]] sync::Synchronizer::TimerSetter timer_setter(ReplicaId id);

  SmrFleetConfig cfg_;
  net::Simulator sim_;
  net::Network network_;
  std::unique_ptr<crypto::CryptoSuite> suite_;
  FleetKeys keys_;
  std::vector<std::uint64_t> epochs_;  // per node; bumped by kill()
  std::vector<std::vector<std::unique_ptr<store::Wal>>> wals_;
  std::vector<std::unique_ptr<shard::ShardedSmr>> nodes_;     // 1-based
  std::vector<std::unique_ptr<shard::DtxCoordinator>> dtx_;   // 1-based
};

}  // namespace probft::sim
