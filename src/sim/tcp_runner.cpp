#include "sim/tcp_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "net/tcp_transport.hpp"
#include "sim/node_factory.hpp"

namespace probft::sim {

bool tcp_fault_supported(Fault fault) {
  switch (fault) {
    case Fault::kNone:
    case Fault::kSilentLeader:
    case Fault::kSilentFollowers:
      return true;
    default:
      return false;
  }
}

ScenarioOutcome run_scenario_tcp(const ScenarioSpec& spec,
                                 std::uint64_t seed) {
  if (!tcp_fault_supported(spec.fault)) {
    throw std::invalid_argument("fault not supported over tcp-loopback");
  }
  // Reuse the spec→cluster translation for behaviors, quorum parameters
  // and sync pacing; only the transport differs.
  const ClusterConfig cfg = make_cluster_config(spec, seed);
  const std::uint32_t n = cfg.n;

  // Deterministic keys, exactly like sim::Cluster.
  const auto keygen_suite = crypto::make_sim_suite();
  const FleetKeys keys = derive_keys(*keygen_suite, n, seed);

  // Build every transport first (ephemeral binds), then cross-wire the
  // discovered ports — after this, each transport is touched only by its
  // own loop thread.
  std::vector<std::unique_ptr<net::TcpTransport>> transports(n + 1);
  for (ReplicaId id = 1; id <= n; ++id) {
    net::TcpTransportConfig tc;
    tc.self = id;
    tc.n = n;
    tc.listen_host = "127.0.0.1";
    tc.listen_port = 0;
    transports[id] = std::make_unique<net::TcpTransport>(std::move(tc));
  }
  for (ReplicaId id = 1; id <= n; ++id) {
    for (ReplicaId peer = 1; peer <= n; ++peer) {
      transports[id]->set_peer(
          peer, net::PeerAddress{"127.0.0.1",
                                 transports[peer]->listen_port()});
    }
  }

  const auto behavior_of = [&cfg](ReplicaId id) {
    return id <= cfg.behaviors.size() ? cfg.behaviors[id - 1]
                                      : Behavior::kHonest;
  };
  std::size_t correct_total = 0;
  for (ReplicaId id = 1; id <= n; ++id) {
    if (behavior_of(id) == Behavior::kHonest) ++correct_total;
  }

  // Shared decision book: every node loop thread writes it under mu; the
  // harness thread reads it back after the joins — still under mu, which
  // is how the thread-safety analysis knows both sides are covered.
  struct DecisionBook {
    Mutex mu;
    std::vector<DecisionRecord> decisions PROBFT_GUARDED_BY(mu);
    std::vector<bool> decided PROBFT_GUARDED_BY(mu);
    std::size_t correct_decided PROBFT_GUARDED_BY(mu) = 0;
  };
  DecisionBook book;
  {
    MutexLock lock(book.mu);
    book.decided.assign(n + 1, false);
  }
  std::atomic<bool> all_done{false};
  const auto start = std::chrono::steady_clock::now();
  const auto wall_us_since_start = [start]() {
    return static_cast<TimePoint>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  // Per-node crypto suites: cheap, and keeps every thread's signing state
  // private by construction.
  std::vector<std::unique_ptr<crypto::CryptoSuite>> suites(n + 1);
  std::vector<std::unique_ptr<core::INode>> nodes(n + 1);
  for (ReplicaId id = 1; id <= n; ++id) {
    if (behavior_of(id) != Behavior::kHonest) continue;  // crashed process
    suites[id] = crypto::make_sim_suite();

    NodeParams params;
    params.protocol = cfg.protocol;
    params.id = id;
    params.n = n;
    params.f = cfg.f;
    params.o = cfg.o;
    params.l = cfg.l;
    params.my_value = default_node_value(cfg.value_prefix, id);
    params.suite = suites[id].get();
    params.secret_key = keys.pairs[id].secret_key;
    params.public_keys = keys.public_keys;
    params.sync = cfg.sync;

    core::ProtocolHost host = transport_host(
        *transports[id], id, transports[id]->timer_setter());
    host.on_decide = [&, id](View view, const Bytes& value) {
      MutexLock lock(book.mu);
      if (book.decided[id]) return;
      book.decided[id] = true;
      book.decisions.push_back(
          DecisionRecord{id, view, value, wall_us_since_start()});
      if (++book.correct_decided == correct_total) {
        all_done.store(true, std::memory_order_release);
      }
    };
    nodes[id] = make_honest_node(params, std::move(host));

    core::INode* node = nodes[id].get();
    transports[id]->register_handler(
        id, [node](ReplicaId from, std::uint8_t tag, const Bytes& payload) {
          node->on_message(from, tag, payload);
        });
  }

  const Duration wall_budget =
      std::min<Duration>(spec.deadline, kTcpMaxWallUs);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (ReplicaId id = 1; id <= n; ++id) {
    // Silent replicas keep their transport alive (listener accepts, the
    // process is "up" but Byzantine-silent); honest ones start the replica
    // on the loop thread so all transport activity stays thread-confined.
    threads.emplace_back([&, id]() {
      if (nodes[id]) nodes[id]->start();
      transports[id]->run_until(
          [&all_done]() {
            return all_done.load(std::memory_order_acquire);
          },
          wall_budget);
    });
  }
  for (auto& thread : threads) thread.join();

  ScenarioOutcome outcome;
  outcome.seed = seed;
  outcome.correct = correct_total;
  std::set<Bytes> values;
  std::ostringstream transcript;
  {
    MutexLock lock(book.mu);
    outcome.terminated = book.correct_decided == correct_total;
    outcome.decided = book.correct_decided;
    for (const auto& d : book.decisions) {
      values.emplace(d.value);  // not insert: see Cluster::decided_values
      outcome.max_view = std::max(outcome.max_view, d.view);
      outcome.last_decision_at = std::max(outcome.last_decision_at, d.at);
      transcript << d.replica << " " << d.view << " " << to_hex(d.value)
                 << " " << d.at << "\n";
    }
  }
  outcome.agreement = values.size() <= 1;
  outcome.transcript = transcript.str();
  for (ReplicaId id = 1; id <= n; ++id) {
    outcome.messages += transports[id]->stats().sends;
    outcome.bytes += transports[id]->stats().bytes_sent;
  }
  return outcome;  // nodes die before transports (declaration order)
}

}  // namespace probft::sim
