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
      nodes_(cfg_.n + 1) {
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    open_wal(id);
    build(id);
    network_.register_handler(
        id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
          if (nodes_[id]) nodes_[id]->on_message(from, tag, m);
        });
  }
}

SmrFleet::~SmrFleet() = default;

void SmrFleet::open_wal(ReplicaId id) {
  if (id < cfg_.wal_dirs.size() && !cfg_.wal_dirs[id].empty()) {
    wals_[id] = std::make_unique<store::Wal>(
        store::WalOptions{cfg_.wal_dirs[id], cfg_.wal_fsync});
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
  params.wal = wals_[id].get();
  params.on_execute = [this, id](const smr::ExecutedCommand& cmd) {
    if (cfg_.on_execute) cfg_.on_execute(*this, id, cmd);
  };
  nodes_[id] = make_smr_node(params,
                             transport_host(network_, id, timer_setter(id)));
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
  nodes_[id].reset();
  wals_[id].reset();
}

void SmrFleet::restart(ReplicaId id) {
  open_wal(id);
  build(id);
  nodes_[id]->start();
}

bool SmrFleet::logs_identical() const {
  const smr::SmrReplica* reference = nullptr;
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (!nodes_[id]) continue;
    if (reference == nullptr) reference = nodes_[id].get();
    if (nodes_[id]->log_digest() != reference->log_digest()) return false;
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
  // The reference is the node that executed furthest.
  const smr::SmrReplica* longest = nullptr;
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (!live(id)) continue;
    const auto& r = *nodes_[id];
    if (longest == nullptr ||
        r.committed_slots() > longest->committed_slots()) {
      longest = &r;
    }
  }
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (!live(id)) {
      transcript << id << " down\n";
      continue;
    }
    const auto& r = *nodes_[id];
    const auto& slot_log = r.slot_log();
    const std::uint64_t base = r.log_base();
    for (std::size_t i = 0; i < slot_log.size(); ++i) {
      const std::uint64_t slot = base + i;
      if (slot < longest->log_base() || slot >= longest->committed_slots()) {
        continue;  // outside the reference's retained range
      }
      if (slot_log[i] != longest->slot_log()[slot - longest->log_base()]) {
        result.ok = false;
      }
    }
    // Equally far ⇒ bit-identical: the chained digest covers truncated
    // slots too.
    if (r.committed_slots() == longest->committed_slots() &&
        r.log_digest() != longest->log_digest()) {
      result.ok = false;
    }
    transcript << id << " " << r.executed_commands() << " "
               << r.committed_slots() << " " << r.log_base() << " "
               << r.log_digest() << "\n";
  }
  result.transcript = transcript.str();
  return result;
}

}  // namespace probft::sim
