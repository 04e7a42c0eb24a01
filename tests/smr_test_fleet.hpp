// A sim::SmrFleet for tests: it records the payloads every node executes
// and submits commands as each replica's own client (client id = replica
// id, seq 1, 2, ... per replica).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "sim/smr_fleet.hpp"
#include "smr/smr_replica.hpp"

namespace probft::testutil {

struct SmrTestFleet : sim::SmrFleet {
  /// Per replica (1-based), the payloads it executed, in order. Requests
  /// replayed from a WAL at restart are not reported again.
  std::vector<std::vector<Bytes>> commits;

  explicit SmrTestFleet(sim::SmrFleetConfig cfg)
      : sim::SmrFleet(record_commits(std::move(cfg))),
        commits(config().n + 1),
        seqs_(config().n + 1, 0) {}

  smr::SmrReplica& replica(ReplicaId id) { return node(id); }

  /// Submits `command` at replica `id` as client `id`'s next request.
  bool submit(ReplicaId id, const std::string& command) {
    return node(id).submit_request(id, ++seqs_[id], to_bytes(command));
  }

  /// Whether replica `id` executed `command`.
  [[nodiscard]] bool committed(ReplicaId id, const std::string& command) const {
    const std::vector<Bytes>& log = commits.at(id);
    return std::find(log.begin(), log.end(), to_bytes(command)) != log.end();
  }

  bool run_until_executed(std::uint64_t commands,
                          TimePoint deadline = 300'000'000) {
    return sim::SmrFleet::run_until_executed(commands, deadline);
  }

 private:
  static sim::SmrFleetConfig record_commits(sim::SmrFleetConfig cfg) {
    cfg.on_execute = [](sim::SmrFleet& fleet, ReplicaId id,
                        const smr::ExecutedCommand& cmd) {
      static_cast<SmrTestFleet&>(fleet).commits[id].push_back(cmd.payload);
    };
    return cfg;
  }

  std::vector<std::uint64_t> seqs_;  // per replica: its client's last seq
};

}  // namespace probft::testutil
