#include "sim/smr_fleet.hpp"

#include <sstream>
#include <utility>

namespace probft::sim {

SmrFleet::SmrFleet(SmrFleetConfig config)
    : cfg_(std::move(config)),
      network_(sim_, cfg_.n, cfg_.seed, cfg_.latency),
      suite_(crypto::make_sim_suite()),
      keys_(derive_keys(*suite_, cfg_.n, cfg_.seed)),
      epochs_(cfg_.n + 1, 0),
      wals_(cfg_.n + 1),
      nodes_(cfg_.n + 1),
      dtx_(cfg_.n + 1) {
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    open_wals(id);
    build(id);
    network_.register_handler(
        id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
          if (nodes_[id]) nodes_[id]->on_message(from, tag, m);
        });
  }
}

SmrFleet::~SmrFleet() = default;

void SmrFleet::open_wals(ReplicaId id) {
  if (id < cfg_.wal_dirs.size() && !cfg_.wal_dirs[id].empty()) {
    wals_[id] =
        shard::open_group_wals(cfg_.wal_dirs[id], cfg_.shards, cfg_.wal_fsync);
  }
}

sync::Synchronizer::TimerSetter SmrFleet::timer_setter(ReplicaId id) {
  return [this, id](Duration d, std::function<void()> fn) {
    const std::uint64_t epoch = epochs_[id];
    sim_.schedule_after(d, [this, id, epoch, fn = std::move(fn)] {
      if (epochs_[id] == epoch) fn();
    });
  };
}

void SmrFleet::build(ReplicaId id) {
  NodeParams params;
  params.id = id;
  params.n = cfg_.n;
  params.f = cfg_.f;
  params.o = cfg_.o;
  params.l = cfg_.l;
  params.smr = cfg_.smr;
  params.suite = suite_.get();
  params.secret_key = keys_.pairs[id].secret_key;
  params.public_keys = keys_.public_keys;
  shard::ShardedSmrConfig sc;
  sc.base = smr_config(params);
  sc.shard_count = cfg_.shards;
  for (const auto& wal : wals_[id]) sc.wals.push_back(wal.get());
  sc.on_execute = [this, id](shard::ShardId s,
                             const smr::ExecutedCommand& cmd) {
    if (dtx_[id]) dtx_[id]->on_execute(s, cmd);
    if (cfg_.on_execute) cfg_.on_execute(*this, id, s, cmd);
  };
  nodes_[id] = std::make_unique<shard::ShardedSmr>(
      std::move(sc), transport_host(network_, id, timer_setter(id)));
  dtx_[id] =
      std::make_unique<shard::DtxCoordinator>(*nodes_[id], timer_setter(id));
}

void SmrFleet::start() {
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (nodes_[id]) nodes_[id]->start();
  }
}

bool SmrFleet::run_until(const std::function<bool()>& done,
                         TimePoint deadline, std::uint64_t max_events) {
  while (!done()) {
    if (sim_.now() >= deadline || sim_.events_fired() >= max_events ||
        !sim_.step()) {
      return false;
    }
  }
  return true;
}

bool SmrFleet::all_executed(std::uint64_t commands) const {
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (nodes_[id] && nodes_[id]->executed_commands() < commands) {
      return false;
    }
  }
  return true;
}

bool SmrFleet::run_until_executed(std::uint64_t commands,
                                  TimePoint deadline) {
  return run_until([this, commands] { return all_executed(commands); },
                   deadline);
}

void SmrFleet::kill(ReplicaId id) {
  ++epochs_[id];
  dtx_[id].reset();
  nodes_[id].reset();
  wals_[id].clear();
}

void SmrFleet::restart(ReplicaId id) {
  open_wals(id);
  build(id);
  dtx_[id]->rebuild_from_logs();
  nodes_[id]->start();
}

bool SmrFleet::logs_identical() const {
  const shard::ShardedSmr* reference = nullptr;
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (!nodes_[id]) continue;
    if (reference == nullptr) reference = nodes_[id].get();
    for (shard::ShardId s = 0; s < cfg_.shards; ++s) {
      if (nodes_[id]->log_digest(s) != reference->log_digest(s)) {
        return false;
      }
    }
  }
  return true;
}

FleetAgreement SmrFleet::check_agreement(
    const std::vector<bool>& excluded) const {
  const auto live = [&](ReplicaId id) {
    return nodes_[id] && !(id < excluded.size() && excluded[id]);
  };
  FleetAgreement result;
  std::ostringstream transcript;
  for (shard::ShardId s = 0; s < cfg_.shards; ++s) {
    // The reference is the node that executed furthest.
    const smr::SmrReplica* longest = nullptr;
    for (ReplicaId id = 1; id <= cfg_.n; ++id) {
      if (!live(id)) continue;
      const auto& g = nodes_[id]->group(s);
      if (longest == nullptr ||
          g.committed_slots() > longest->committed_slots()) {
        longest = &g;
      }
    }
    for (ReplicaId id = 1; id <= cfg_.n; ++id) {
      if (!live(id)) {
        if (s == 0) transcript << id << " down\n";
        continue;
      }
      const auto& g = nodes_[id]->group(s);
      const auto& slot_log = g.slot_log();
      const std::uint64_t base = g.log_base();
      for (std::size_t i = 0; i < slot_log.size(); ++i) {
        const std::uint64_t slot = base + i;
        if (slot < longest->log_base() ||
            slot >= longest->committed_slots()) {
          continue;  // outside the reference's retained range
        }
        if (slot_log[i] !=
            longest->slot_log()[slot - longest->log_base()]) {
          result.ok = false;
        }
      }
      // Equally far ⇒ bit-identical: the chained digest covers truncated
      // slots too.
      if (g.committed_slots() == longest->committed_slots() &&
          g.log_digest() != longest->log_digest()) {
        result.ok = false;
      }
      transcript << id;
      if (cfg_.shards > 1) transcript << " s" << s;
      transcript << " " << g.executed_commands() << " "
                 << g.committed_slots() << " " << g.log_base() << " "
                 << g.log_digest() << "\n";
    }
  }
  result.transcript = transcript.str();
  return result;
}

}  // namespace probft::sim
