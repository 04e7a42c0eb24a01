#include "sim/cluster.hpp"

#include <stdexcept>

namespace probft::sim {

namespace {

Bytes default_value_for(const ClusterConfig& cfg, ReplicaId id) {
  if (id <= cfg.my_values.size() && !cfg.my_values[id - 1].empty()) {
    return cfg.my_values[id - 1];
  }
  return default_node_value(cfg.value_prefix, id);
}

}  // namespace

Cluster::Cluster(ClusterConfig config) : cfg_(std::move(config)) {
  if (cfg_.n == 0) throw std::invalid_argument("Cluster: n must be > 0");
  if (cfg_.suite == nullptr) {
    owned_suite_ = crypto::make_sim_suite();
    suite_ = owned_suite_.get();
  } else {
    suite_ = cfg_.suite;
  }
  network_ = std::make_unique<net::Network>(sim_, cfg_.n, cfg_.seed,
                                            cfg_.latency);
  keys_.resize(cfg_.n + 1);
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    keys_[id] = suite_->keygen(mix64(cfg_.seed, id));
  }
  decided_.assign(cfg_.n + 1, false);
  build_nodes();
}

Cluster::~Cluster() = default;

Behavior Cluster::behavior_of(ReplicaId id) const {
  if (id < cfg_.behaviors.size() + 1 && id >= 1) {
    return cfg_.behaviors[id - 1];
  }
  return Behavior::kHonest;
}

bool Cluster::is_byzantine(ReplicaId id) const {
  return behavior_of(id) != Behavior::kHonest;
}

void Cluster::build_nodes() {
  // One shared key directory for the whole cluster (configs copy the
  // handle, not the n keys).
  std::vector<Bytes> key_table(cfg_.n + 1);
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    key_table[id] = keys_[id].public_key;
  }
  const crypto::PublicKeyDir public_keys(std::move(key_table));

  // Attack plan (shared by equivocating leader and colluders).
  std::vector<bool> byz(cfg_.n + 1, false);
  for (ReplicaId id = 1; id <= cfg_.n; ++id) byz[id] = is_byzantine(id);
  Bytes value_a = cfg_.attack_value_a.empty() ? to_bytes("attack-value-A")
                                              : cfg_.attack_value_a;
  Bytes value_b = cfg_.attack_value_b.empty() ? to_bytes("attack-value-B")
                                              : cfg_.attack_value_b;
  plan_ = std::make_shared<const AttackPlan>(
      AttackPlan::make(cfg_.split, cfg_.n, byz, value_a, value_b));

  nodes_.clear();
  nodes_.resize(cfg_.n + 1);

  // Nodes see the network only through the ITransport interface — the same
  // boundary the TCP backend implements — plus the simulator's clock.
  net::ITransport& transport = *network_;
  net::ITransport* transport_ptr = network_.get();

  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    auto set_timer = [this](Duration d, std::function<void()> fn) {
      sim_.schedule_after(d, std::move(fn));
    };
    auto on_decide = [this, id](View view, const Bytes& value) {
      if (!decided_[id]) {
        decided_[id] = true;
        if (!is_byzantine(id)) ++correct_decided_;
        decisions_.push_back(DecisionRecord{id, view, value, sim_.now()});
      }
    };

    const Behavior behavior = behavior_of(id);
    if (behavior == Behavior::kHonest) {
      NodeParams params;
      params.protocol = cfg_.protocol;
      params.id = id;
      params.n = cfg_.n;
      params.f = cfg_.f;
      params.o = cfg_.o;
      params.l = cfg_.l;
      params.my_value = default_value_for(cfg_, id);
      params.stop_sync_on_decide = cfg_.stop_sync_on_decide;
      params.fast_verify = cfg_.fast_verify;
      params.suite = suite_;
      params.secret_key = keys_[id].secret_key;
      params.public_keys = public_keys;
      params.sync = cfg_.sync;
      core::ProtocolHost host = transport_host(transport, id, set_timer);
      host.on_decide = on_decide;
      nodes_[id] = make_honest_node(params, std::move(host));
    } else {
      ByzantineEnv env;
      env.id = id;
      env.n = cfg_.n;
      env.f = cfg_.f;
      env.o = cfg_.o;
      env.l = cfg_.l;
      env.suite = suite_;
      env.secret_key = keys_[id].secret_key;
      env.public_keys = public_keys;
      env.send = [transport_ptr, id](ReplicaId to, std::uint8_t tag,
                                     const Bytes& m) {
        transport_ptr->send(id, to, tag, m);
      };
      env.broadcast = [transport_ptr, id](std::uint8_t tag, const Bytes& m) {
        transport_ptr->broadcast(id, tag, m);
      };
      switch (behavior) {
        case Behavior::kSilent:
          nodes_[id] = std::make_unique<SilentNode>(std::move(env));
          break;
        case Behavior::kEquivocateLeader:
          nodes_[id] = std::make_unique<EquivocatingLeaderNode>(
              std::move(env), plan_);
          break;
        case Behavior::kColludeFollower:
          nodes_[id] = std::make_unique<ColludingFollowerNode>(
              std::move(env), plan_);
          break;
        case Behavior::kFlood:
          nodes_[id] = std::make_unique<FloodingNode>(
              std::move(env), to_bytes("flood-value"));
          break;
        case Behavior::kHonest:
          break;  // unreachable
      }
    }

    network_->register_handler(
        id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
          nodes_[id]->on_message(from, tag, m);
        });
  }

  correct_total_ = 0;
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (!is_byzantine(id)) ++correct_total_;
  }
}

void Cluster::start() {
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    nodes_[id]->start();
  }
}

bool Cluster::run_to_completion(TimePoint deadline, std::size_t max_events) {
  std::size_t fired = 0;
  while (!all_correct_decided() && fired < max_events &&
         sim_.now() < deadline) {
    if (!sim_.step()) break;
    ++fired;
  }
  return all_correct_decided();
}

std::vector<ReplicaId> Cluster::correct_ids() const {
  std::vector<ReplicaId> out;
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (!is_byzantine(id)) out.push_back(id);
  }
  return out;
}

std::size_t Cluster::correct_decided_count() const {
  return correct_decided_;
}

bool Cluster::all_correct_decided() const {
  return correct_decided_ == correct_total_;
}

std::set<Bytes> Cluster::decided_values() const {
  std::set<Bytes> values;
  // emplace rather than insert: gcc 12 at -O3 reports a false
  // -Wstringop-overread on set<Bytes>::insert(const Bytes&).
  for (const auto& d : decisions_) {
    if (!is_byzantine(d.replica)) values.emplace(d.value);
  }
  return values;
}

const core::Replica* Cluster::probft(ReplicaId id) const {
  return dynamic_cast<const core::Replica*>(nodes_[id].get());
}

const pbft::PbftReplica* Cluster::pbft(ReplicaId id) const {
  return dynamic_cast<const pbft::PbftReplica*>(nodes_[id].get());
}

const hotstuff::HotStuffReplica* Cluster::hotstuff(ReplicaId id) const {
  return dynamic_cast<const hotstuff::HotStuffReplica*>(nodes_[id].get());
}

}  // namespace probft::sim
