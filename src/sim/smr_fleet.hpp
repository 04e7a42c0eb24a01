// Simulated SMR fleet: n smr::SmrReplica nodes on one deterministic
// simulator and network.
//
// This is the one place the simulator wires an SMR deployment: keys
// from derive_keys, each node's config from smr_config, its I/O from
// transport_host — the same plumbing the node binary uses over sockets.
// The scenario runner's SMR workloads, the SMR benches, the smr_log
// example and the SMR test fleets all run on it.
//
// Beyond wiring, the fleet owns what every caller used to repeat: a
// bounded run-until loop, kill/restart of a node from its WAL (timers a
// killed node scheduled are epoch-guarded and never fire into freed
// memory), and the log agreement check.
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
  smr::SmrOptions smr;
  net::LatencyConfig latency;
  /// Optional per-node WAL directories (index = replica id; a missing or
  /// empty entry runs that node memory-only), in the node binary's
  /// --wal-dir layout.
  std::vector<std::string> wal_dirs;
  bool wal_fsync = false;
  /// Called once per request any node executes.
  std::function<void(SmrFleet&, ReplicaId, const smr::ExecutedCommand&)>
      on_execute;
};

/// Outcome of SmrFleet::check_agreement.
struct FleetAgreement {
  bool ok = true;
  /// One "id executed slots base digest" line per live node ("id down"
  /// for excluded or killed nodes).
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
  /// Same, until every live node executed at least `commands` requests.
  bool run_until_executed(std::uint64_t commands, TimePoint deadline);
  [[nodiscard]] bool all_executed(std::uint64_t commands) const;

  /// Crash: the node is destroyed, its WAL closed and its pending timers
  /// disarmed. Peers see a silent replica.
  void kill(ReplicaId id);
  /// Rebuilds a killed node from its WAL directory (reopened from disk,
  /// as a restarted process would) and starts it.
  void restart(ReplicaId id);

  /// Whether every live node holds the same chained log digest
  /// (bit-identical histories).
  [[nodiscard]] bool logs_identical() const;
  /// Live nodes outside `excluded` (1-based flags) must hold agreeing
  /// slot logs wherever their retained ranges overlap the node that
  /// executed furthest, and the same chained digest when they executed
  /// equally far — logs may start at different bases once stable
  /// checkpoints truncate them.
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
  [[nodiscard]] smr::SmrReplica& node(ReplicaId id) {
    return *nodes_.at(id);
  }
  [[nodiscard]] const smr::SmrReplica& node(ReplicaId id) const {
    return *nodes_.at(id);
  }

 private:
  void build(ReplicaId id);
  void open_wal(ReplicaId id);
  [[nodiscard]] sync::Synchronizer::TimerSetter timer_setter(ReplicaId id);

  SmrFleetConfig cfg_;
  net::Simulator sim_;
  net::Network network_;
  std::unique_ptr<crypto::CryptoSuite> suite_;
  FleetKeys keys_;
  std::vector<std::uint64_t> epochs_;  // per node; bumped by kill()
  std::vector<std::unique_ptr<store::Wal>> wals_;        // 1-based
  std::vector<std::unique_ptr<smr::SmrReplica>> nodes_;  // 1-based
};

}  // namespace probft::sim
