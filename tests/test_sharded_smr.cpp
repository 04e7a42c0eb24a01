// Sharded SMR service (src/shard): S consensus groups multiplexed over
// one simulated connection per node must (1) route every request to the
// group owning its payload bytes and agree per shard across the fleet,
// (2) produce per-shard logs bit-identical to an S = 1-equivalent plain
// SmrReplica fleet run with the same leader offset — multiplexing is
// scheduling, never content, (3) commit cross-shard transactions
// atomically and reconstruct dtx state from the per-shard WALs after a
// crash, (4) keep sibling shards committing while shard 0's leader
// goes silent (the view change is per group, not fleet-wide), (5) speak
// the single-group wire with one group, (6) ignore dtx bookkeeping bytes
// from ordinary clients, and (7) find a retry's dedup state in the group
// that ordered the request.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "shard/dtx.hpp"
#include "shard/sharded_smr.hpp"
#include "sim/scenario.hpp"
#include "smr/read_view.hpp"
#include "smr/smr_replica.hpp"
#include "store/wal.hpp"

namespace probft::shard {
namespace {

/// n ShardedSmr nodes (each S groups) over the simulated network, with a
/// DtxCoordinator per node driving off its execution stream — the same
/// wiring the node binary uses, minus sockets.
struct ShardedFleet {
  net::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<crypto::CryptoSuite> suite;
  std::vector<crypto::KeyPair> keys;
  std::vector<std::unique_ptr<ShardedSmr>> nodes;       // 1-based
  std::vector<std::unique_ptr<DtxCoordinator>> dtx;     // 1-based

  ShardedFleet(std::uint32_t n, std::uint32_t shards,
               smr::SmrOptions options = {}, std::uint64_t seed = 1,
               net::LatencyConfig latency = {},
               const std::vector<std::vector<store::Wal*>>& wals = {},
               std::uint32_t f = 0, double l = 2.0) {
    net = std::make_unique<net::Network>(sim, n, seed, latency);
    suite = crypto::make_sim_suite();
    keys.resize(n + 1);
    std::vector<Bytes> key_table(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      keys[id] = suite->keygen(mix64(seed, id));
      key_table[id] = keys[id].public_key;
    }
    const crypto::PublicKeyDir public_keys(std::move(key_table));
    nodes.resize(n + 1);
    dtx.resize(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      ShardedSmrConfig cfg;
      cfg.base.id = id;
      cfg.base.n = n;
      cfg.base.f = f;
      cfg.base.l = l;
      cfg.base.pipeline = options;
      cfg.base.suite = suite.get();
      cfg.base.secret_key = keys[id].secret_key;
      cfg.base.public_keys = public_keys;
      cfg.base.sync.base_timeout = 100'000;
      cfg.map.shard_count = shards;
      if (id < wals.size()) cfg.wals = wals[id];
      cfg.on_execute = [this, id](ShardId s,
                                  const smr::ExecutedCommand& cmd) {
        if (dtx[id]) dtx[id]->on_execute(s, cmd);
      };
      core::ProtocolHost host;
      host.send = [this, id](ReplicaId to, std::uint8_t tag,
                             const Bytes& m) {
        net->send(id, to, tag, m);
      };
      host.broadcast = [this, id](std::uint8_t tag, const Bytes& m) {
        net->broadcast(id, tag, m);
      };
      host.set_timer = [this](Duration d, std::function<void()> fn) {
        sim.schedule_after(d, std::move(fn));
      };
      nodes[id] = std::make_unique<ShardedSmr>(std::move(cfg), host);
      dtx[id] = std::make_unique<DtxCoordinator>(
          *nodes[id], [this](Duration d, std::function<void()> fn) {
            sim.schedule_after(d, std::move(fn));
          });
      net->register_handler(
          id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
            nodes[id]->on_message(from, tag, m);
          });
    }
  }

  void start_all() {
    for (std::size_t id = 1; id < nodes.size(); ++id) nodes[id]->start();
  }

  /// Runs until every node's aggregate execution count reaches `expect`.
  bool run_until_executed(std::uint64_t expect,
                          TimePoint deadline = 120'000'000) {
    while (sim.now() < deadline) {
      bool all = true;
      for (std::size_t id = 1; id < nodes.size(); ++id) {
        if (nodes[id]->executed_commands() < expect) {
          all = false;
          break;
        }
      }
      if (all) return true;
      if (!sim.step()) return false;
    }
    return false;
  }

  void expect_per_shard_agreement() {
    const std::uint32_t shards = nodes[1]->shard_count();
    for (ShardId s = 0; s < shards; ++s) {
      for (std::size_t id = 2; id < nodes.size(); ++id) {
        EXPECT_EQ(nodes[id]->log_digest(s), nodes[1]->log_digest(s))
            << "shard " << s << " diverged at replica " << id;
      }
    }
  }
};

/// n bare SmrReplica nodes (leader offset 0) over the simulated network,
/// configured like one group of a ShardedFleet.
struct PlainFleet {
  net::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<crypto::CryptoSuite> suite;
  std::vector<std::unique_ptr<smr::SmrReplica>> replicas;  // 1-based

  PlainFleet(std::uint32_t n, std::uint64_t seed,
             net::LatencyConfig latency) {
    net = std::make_unique<net::Network>(sim, n, seed, latency);
    suite = crypto::make_sim_suite();
    std::vector<crypto::KeyPair> keys(n + 1);
    std::vector<Bytes> key_table(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      keys[id] = suite->keygen(mix64(seed, id));
      key_table[id] = keys[id].public_key;
    }
    const crypto::PublicKeyDir public_keys(std::move(key_table));
    replicas.resize(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      smr::SmrConfig cfg;
      cfg.id = id;
      cfg.n = n;
      cfg.suite = suite.get();
      cfg.secret_key = keys[id].secret_key;
      cfg.public_keys = public_keys;
      cfg.sync.base_timeout = 100'000;
      core::ProtocolHost host;
      host.send = [this, id](ReplicaId to, std::uint8_t tag,
                             const Bytes& m) {
        net->send(id, to, tag, m);
      };
      host.broadcast = [this, id](std::uint8_t tag, const Bytes& m) {
        net->broadcast(id, tag, m);
      };
      host.set_timer = [this](Duration d, std::function<void()> fn) {
        sim.schedule_after(d, std::move(fn));
      };
      replicas[id] = std::make_unique<smr::SmrReplica>(std::move(cfg), host);
      net->register_handler(
          id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
            replicas[id]->on_message(from, tag, m);
          });
    }
  }

  bool run_until_executed(std::uint64_t expect) {
    while (sim.now() < 120'000'000) {
      bool all = true;
      for (std::size_t id = 1; id < replicas.size(); ++id) {
        if (replicas[id]->executed_commands() < expect) {
          all = false;
          break;
        }
      }
      if (all) return true;
      if (!sim.step()) return false;
    }
    return false;
  }
};

Bytes dtx_payload(const ShardMap& map, std::uint32_t shards,
                  const std::string& stem) {
  std::vector<Bytes> keys;
  for (ShardId s = 0; s < shards; ++s) {
    for (std::uint64_t nonce = 0;; ++nonce) {
      Bytes key = to_bytes(stem + "-" + std::to_string(nonce));
      if (shard_of(map, ByteSpan(key.data(), key.size())) == s) {
        keys.push_back(std::move(key));
        break;
      }
    }
  }
  return DtxCoordinator::encode_request(keys);
}

// Requests submitted at ONE node must land in the group owning their
// payload bytes — on every node — and sibling groups' logs must agree
// fleet-wide.
TEST(ShardedSmr, DemuxRoutesEveryRequestToItsOwningGroup) {
  const std::uint32_t n = 4, shards = 4;
  const std::uint64_t commands = 24;
  ShardedFleet fleet(n, shards);
  const Placement& placement = fleet.nodes[1]->placement();
  std::map<ShardId, std::uint64_t> owned;
  for (std::uint64_t i = 1; i <= commands; ++i) {
    Bytes payload = to_bytes("op-" + std::to_string(i));
    ++owned[placement.shard_of(ByteSpan(payload.data(), payload.size()))];
    ASSERT_TRUE(
        fleet.nodes[1]->submit_request(9000 + i, 1, std::move(payload)));
  }
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(commands));
  for (ShardId s = 0; s < shards; ++s) {
    for (ReplicaId id = 1; id <= n; ++id) {
      EXPECT_EQ(fleet.nodes[id]->group(s).executed_commands(), owned[s])
          << "replica " << id << " shard " << s;
    }
  }
  fleet.expect_per_shard_agreement();
}

// The acceptance-bar bit-identity property: each shard's log under the
// multiplexed service equals the log of a plain single-group SmrReplica
// fleet run with the same leader offset and the shard's slice of the
// workload. Zero-jitter latency (min == max, no reorder/duplicate) makes
// every link FIFO, so arrival order — and therefore log content — is
// submission order in both runs; the multiplexer may interleave
// scheduling but must never perturb content.
TEST(ShardedSmr, PerShardLogsBitIdenticalToPlainSingleGroupFleet) {
  const std::uint32_t n = 4, shards = 2;
  const std::uint64_t commands = 16;
  net::LatencyConfig fifo;
  fifo.min_delay = 1'000;
  fifo.max_delay_post = 1'000;  // zero jitter: per-link FIFO delivery

  smr::SmrOptions options;
  options.batch_max_commands = 1;  // one slot per command: log = arrivals

  ShardedFleet fleet(n, shards, options, /*seed=*/1, fifo);
  const ShardMap map = fleet.nodes[1]->placement().map();
  std::vector<std::vector<std::pair<std::uint64_t, Bytes>>> slice(shards);
  for (std::uint64_t i = 1; i <= commands; ++i) {
    Bytes payload = to_bytes("op-" + std::to_string(i));
    const ShardId s =
        shard_of(map, ByteSpan(payload.data(), payload.size()));
    slice[s].emplace_back(9000 + i, payload);
    ASSERT_TRUE(
        fleet.nodes[1]->submit_request(9000 + i, 1, std::move(payload)));
  }
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(commands));
  fleet.expect_per_shard_agreement();

  for (ShardId s = 0; s < shards; ++s) {
    // S = 1-equivalent: a plain fleet with this group's leader offset,
    // fed only this shard's commands in the same relative order.
    net::Simulator sim;
    net::Network plain_net(sim, n, /*seed=*/1, fifo);
    const auto suite = crypto::make_sim_suite();
    std::vector<crypto::KeyPair> keys(n + 1);
    std::vector<Bytes> key_table(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      keys[id] = suite->keygen(mix64(1, id));
      key_table[id] = keys[id].public_key;
    }
    const crypto::PublicKeyDir public_keys(std::move(key_table));
    std::vector<std::unique_ptr<smr::SmrReplica>> replicas(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      smr::SmrConfig cfg;
      cfg.id = id;
      cfg.n = n;
      cfg.f = 0;
      cfg.pipeline = options;
      cfg.leader_offset = s;
      cfg.suite = suite.get();
      cfg.secret_key = keys[id].secret_key;
      cfg.public_keys = public_keys;
      cfg.sync.base_timeout = 100'000;
      core::ProtocolHost host;
      host.send = [&plain_net, id](ReplicaId to, std::uint8_t tag,
                                   const Bytes& m) {
        plain_net.send(id, to, tag, m);
      };
      host.broadcast = [&plain_net, id](std::uint8_t tag, const Bytes& m) {
        plain_net.broadcast(id, tag, m);
      };
      host.set_timer = [&sim](Duration d, std::function<void()> fn) {
        sim.schedule_after(d, std::move(fn));
      };
      replicas[id] = std::make_unique<smr::SmrReplica>(std::move(cfg), host);
      plain_net.register_handler(
          id, [&replicas, id](ReplicaId from, std::uint8_t tag,
                              const Bytes& m) {
            replicas[id]->on_message(from, tag, m);
          });
    }
    for (const auto& [client, payload] : slice[s]) {
      ASSERT_TRUE(replicas[1]->submit_request(client, 1, payload));
    }
    for (ReplicaId id = 1; id <= n; ++id) replicas[id]->start();
    while (sim.now() < 120'000'000 &&
           replicas[1]->executed_commands() < slice[s].size()) {
      if (!sim.step()) break;
    }
    ASSERT_GE(replicas[1]->executed_commands(), slice[s].size())
        << "plain fleet for shard " << s << " did not finish";
    EXPECT_EQ(fleet.nodes[1]->log_digest(s), replicas[1]->log_digest())
        << "shard " << s
        << ": multiplexed log diverged from the single-group fleet";
  }
}

// Cross-shard transactions: every participant group commits the APPLY
// entry (2 + 2S entries per tx, fleet-wide agreement), and a replica
// rebuilt from its per-shard WALs reconstructs both the logs and the
// coordinator's view of every finished transaction.
TEST(ShardedSmr, DtxCommitsAtomicallyAndSurvivesWalRecovery) {
  const std::uint32_t n = 4, shards = 2;
  const std::uint64_t commands = 8, dtx_count = 2;
  const auto root = std::filesystem::temp_directory_path() /
                    ("probft-shard-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  // Replica 1 runs durable; everyone else is memory-only.
  std::vector<std::unique_ptr<store::Wal>> wal_store;
  std::vector<std::vector<store::Wal*>> wals(2);
  for (ShardId s = 0; s < shards; ++s) {
    wal_store.push_back(std::make_unique<store::Wal>(store::WalOptions{
        .dir = (root / ("shard-" + std::to_string(s))).string(),
        .fsync = false}));
    wals[1].push_back(wal_store.back().get());
  }

  std::uint64_t committed_cb = 0;
  {
    ShardedFleet fleet(n, shards, {}, /*seed=*/1, {}, wals);
    const ShardMap map = fleet.nodes[1]->placement().map();
    fleet.dtx[1]->set_on_complete(
        [&committed_cb](std::uint64_t, bool committed, std::uint64_t,
                        std::uint64_t) {
          if (committed) ++committed_cb;
        });
    for (std::uint64_t i = 1; i <= commands; ++i) {
      ASSERT_TRUE(fleet.nodes[1]->submit_request(
          9000 + i, 1, to_bytes("op-" + std::to_string(i))));
    }
    fleet.start_all();
    for (std::uint64_t j = 0; j < dtx_count; ++j) {
      ASSERT_TRUE(fleet.dtx[1]->submit(
          88'000 + j, 1,
          dtx_payload(map, shards, "dtx-" + std::to_string(j))));
    }
    const std::uint64_t expect = commands + dtx_count * (2 + 2 * shards);
    ASSERT_TRUE(fleet.run_until_executed(expect));
    fleet.expect_per_shard_agreement();
    for (ReplicaId id = 1; id <= n; ++id) {
      EXPECT_EQ(fleet.dtx[id]->committed(), dtx_count) << "replica " << id;
      EXPECT_EQ(fleet.dtx[id]->aborted(), 0u) << "replica " << id;
      EXPECT_EQ(fleet.dtx[id]->in_flight(), 0u) << "replica " << id;
    }
    EXPECT_EQ(committed_cb, dtx_count);

    // Crash-equivalent: record the digests, then drop the fleet (the
    // WALs keep replica 1's history).
    std::vector<std::string> digests(shards);
    for (ShardId s = 0; s < shards; ++s) {
      digests[s] = fleet.nodes[1]->log_digest(s);
    }
    for (auto& wal : wal_store) wal.reset();
    wal_store.clear();

    // Restart: fresh WAL handles over the same directories, a fresh
    // service recovered from them, dtx state rebuilt from the logs.
    std::vector<std::unique_ptr<store::Wal>> reopened;
    ShardedSmrConfig cfg;
    cfg.base.id = 1;
    cfg.base.n = n;
    cfg.base.f = 0;
    cfg.base.suite = fleet.suite.get();
    cfg.base.secret_key = fleet.keys[1].secret_key;
    std::vector<Bytes> key_table(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      key_table[id] = fleet.keys[id].public_key;
    }
    cfg.base.public_keys = crypto::PublicKeyDir(std::move(key_table));
    cfg.map.shard_count = shards;
    for (ShardId s = 0; s < shards; ++s) {
      reopened.push_back(std::make_unique<store::Wal>(store::WalOptions{
          .dir = (root / ("shard-" + std::to_string(s))).string(),
          .fsync = false}));
      cfg.wals.push_back(reopened.back().get());
    }
    core::ProtocolHost host;  // offline: no peers, no timers needed
    host.send = [](ReplicaId, std::uint8_t, const Bytes&) {};
    host.broadcast = [](std::uint8_t, const Bytes&) {};
    host.set_timer = [](Duration, std::function<void()>) {};
    ShardedSmr revived(std::move(cfg), host);
    for (ShardId s = 0; s < shards; ++s) {
      EXPECT_EQ(revived.log_digest(s), digests[s])
          << "shard " << s << " recovered a different history";
    }
    DtxCoordinator revived_dtx(
        revived, [](Duration, std::function<void()>) {});
    revived_dtx.rebuild_from_logs();
    EXPECT_EQ(revived_dtx.committed(), dtx_count);
    EXPECT_EQ(revived_dtx.aborted(), 0u);
    EXPECT_EQ(revived_dtx.in_flight(), 0u);
  }
  std::filesystem::remove_all(root);
}

// Regression for the silent shard-0 leader: dropping every shard-0 frame
// from that group's view-1 leader must stall only group 0 (until its view
// change passes the leader by) — sibling shards share the node's
// connection but must keep committing throughout.
TEST(ShardedSmr, SilentShardZeroLeaderDoesNotStallSiblingShards) {
  sim::ScenarioSpec spec;
  spec.protocol = sim::Protocol::kProbft;
  spec.workload = sim::Workload::kSmr;
  spec.fault = sim::Fault::kShardSilentLeader;
  spec.n = 4;
  spec.f = 1;
  // l = 1.5 makes the ProBFT quorum 3-of-4 (the spec default 2.0 needs
  // all four replicas at n = 4, which tolerates no silent leader at all
  // — the same shape run_tcp_cluster.sh uses for its kill-restart mode).
  spec.l = 1.5;
  spec.shards = 4;
  spec.smr_commands = 12;
  const auto outcome = sim::run_scenario_smr(spec, /*seed=*/1);
  EXPECT_TRUE(outcome.terminated)
      << "sibling shards stalled behind shard 0's silent leader: decided="
      << outcome.decided << "/" << outcome.correct << "\n"
      << outcome.transcript;
  EXPECT_TRUE(outcome.agreement);
}

// The engine view (the view new slots start in) is per group: shard 0's
// view change past its silent leader must not move any sibling group off
// view 1.
TEST(ShardedSmr, SilentShardLeaderMovesOnlyItsOwnGroupsEngineView) {
  constexpr std::uint32_t kShards = 4;
  ShardedFleet fleet(4, kShards, {}, /*seed=*/1, {}, {}, /*f=*/1,
                     /*l=*/1.5);  // q = 3 of 4
  const ReplicaId silenced = lead_replica(0, 4);
  fleet.net->set_payload_filter([silenced](ReplicaId from, ReplicaId,
                                           std::uint8_t tag,
                                           const Bytes& payload) {
    if (from != silenced || tag != kShardTag) return false;
    Reader r{ByteSpan(payload.data(), payload.size())};
    return r.u32() == 0;
  });
  // Two requests per shard, all entered at shard 1's leader: shard 0's
  // reach the silent leader as forwards, so that group has to change
  // view to commit them.
  const ReplicaId entry = lead_replica(1, 4);
  const ShardMap& map = fleet.nodes[entry]->placement().map();
  std::vector<int> per_shard(kShards, 0);
  std::uint64_t submitted = 0;
  for (std::uint64_t i = 0; submitted < 2 * kShards; ++i) {
    Bytes payload = to_bytes("k-" + std::to_string(i));
    const ShardId s = shard_of(map, ByteSpan(payload.data(), payload.size()));
    if (per_shard[s] == 2) continue;
    ++per_shard[s];
    ASSERT_TRUE(fleet.nodes[entry]->submit_request(500 + i, 1, payload));
    ++submitted;
  }
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(submitted));
  fleet.expect_per_shard_agreement();
  for (ReplicaId id = 1; id <= 4; ++id) {
    for (ShardId s = 1; s < kShards; ++s) {
      EXPECT_EQ(fleet.nodes[id]->group(s).engine_view(), 1U)
          << "replica " << id << " shard " << s;
    }
    if (id != silenced) {
      EXPECT_GT(fleet.nodes[id]->group(0).engine_view(), 1U)
          << "replica " << id;
    }
  }
}

// A one-group service is the single-group deployment: over a jittered
// network it must send exactly the frames a bare SmrReplica fleet sends
// (same tags, same bytes — no shard envelope, no versioned forward) and
// decide the same log.
TEST(ShardedSmr, OneShardSpeaksTheSingleGroupWire) {
  const std::uint32_t n = 4;
  const std::uint64_t seed = 7, commands = 12;
  const net::LatencyConfig jitter;  // delays drawn from [1 ms, 10 ms]
  ShardedFleet sharded(n, 1, {}, seed, jitter);
  PlainFleet plain(n, seed, jitter);
  for (std::uint64_t i = 1; i <= commands; ++i) {
    // Half enter at the view-1 leader, half at a follower (forwarded).
    const ReplicaId entry = i % 2 == 0 ? 1 : 3;
    const Bytes payload = to_bytes("op-" + std::to_string(i));
    ASSERT_TRUE(sharded.nodes[entry]->submit_request(9000 + i, 1, payload));
    ASSERT_TRUE(plain.replicas[entry]->submit_request(9000 + i, 1, payload));
  }
  sharded.start_all();
  for (ReplicaId id = 1; id <= n; ++id) plain.replicas[id]->start();
  ASSERT_TRUE(sharded.run_until_executed(commands));
  ASSERT_TRUE(plain.run_until_executed(commands));

  const net::TransportStats& one = sharded.net->stats();
  const net::TransportStats& bare = plain.net->stats();
  EXPECT_EQ(one.sends_for(kShardTag), 0U);
  EXPECT_EQ(one.sends_for(kShardForwardTag), 0U);
  EXPECT_GT(one.sends_for(net::tags::kSmrForward), 0U)
      << "the workload must exercise the forward path";
  EXPECT_EQ(one.sends_by_tag, bare.sends_by_tag);
  EXPECT_EQ(one.bytes_sent, bare.bytes_sent);
  for (ReplicaId id = 1; id <= n; ++id) {
    EXPECT_EQ(sharded.nodes[id]->log_digest(0),
              plain.replicas[id]->log_digest())
        << "replica " << id;
  }
}

// Dtx bookkeeping is trusted only under the synthetic client that owns
// its phase. An ordinary client's "DXD1 ‖ txid ‖ 0" executing in the
// coordinator log ahead of the real DECIDE is data: the transaction
// still commits, live and after a rebuild from the WAL.
TEST(ShardedSmr, ForgedDtxDecideFromAnOrdinaryClientIsData) {
  const std::uint32_t n = 4, shards = 2;
  const std::uint64_t origin_client = 88'000, origin_seq = 1;
  const std::uint64_t forger = 7'777;
  const auto root = std::filesystem::temp_directory_path() /
                    ("probft-forge-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::vector<std::unique_ptr<store::Wal>> wal_store =
      open_group_wals(root.string(), shards, /*fsync=*/false);
  std::vector<std::vector<store::Wal*>> wals(2);
  for (const auto& wal : wal_store) wals[1].push_back(wal.get());

  ShardedFleet fleet(n, shards, {}, /*seed=*/1, {}, wals);
  const ShardMap map = fleet.nodes[1]->placement().map();
  // Mine a transaction whose forged abort places in its coordinator
  // group (the group owning the first key, shard 0), so the forgery is
  // ordered against the real DECIDE in one log.
  Bytes request;
  Bytes forged;
  Bytes real_decide;
  for (int j = 0;; ++j) {
    request = dtx_payload(map, shards, "victim-" + std::to_string(j));
    const std::uint64_t txid =
        DtxCoordinator::txid_of(origin_client, origin_seq, request);
    const auto decide = [txid](std::uint8_t commit) {
      Writer w;
      w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>("DXD1"), 4));
      w.u64(txid);
      w.u8(commit);
      return std::move(w).take();
    };
    forged = decide(0);
    real_decide = decide(1);
    const ByteSpan key = smr::read_view_key(ByteSpan(forged.data(), forged.size()));
    if (shard_of(map, key) == 0) break;
  }
  EXPECT_FALSE(DtxCoordinator::is_bookkeeping(0, forger, forged));

  ASSERT_TRUE(fleet.nodes[1]->submit_request(forger, 1, forged));
  fleet.start_all();
  ASSERT_TRUE(fleet.dtx[1]->submit(origin_client, origin_seq, request));
  ASSERT_TRUE(fleet.run_until_executed(1 + 2 + 2 * shards));
  fleet.expect_per_shard_agreement();

  const std::vector<Bytes> coord_log = fleet.nodes[1]->group(0).log();
  const auto at = [&coord_log](const Bytes& payload) {
    return std::find(coord_log.begin(), coord_log.end(), payload) -
           coord_log.begin();
  };
  ASSERT_LT(at(real_decide), static_cast<std::ptrdiff_t>(coord_log.size()))
      << "the real commit DECIDE never executed";
  EXPECT_LT(at(forged), at(real_decide))
      << "the forgery must land before the real decide";
  for (ReplicaId id = 1; id <= n; ++id) {
    EXPECT_EQ(fleet.dtx[id]->committed(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.dtx[id]->aborted(), 0U) << "replica " << id;
  }

  // Rebuild replica 1's tracker from its WALs alone.
  wal_store.clear();
  std::vector<std::unique_ptr<store::Wal>> reopened =
      open_group_wals(root.string(), shards, /*fsync=*/false);
  ShardedSmrConfig cfg;
  cfg.base.id = 1;
  cfg.base.n = n;
  cfg.base.suite = fleet.suite.get();
  cfg.base.secret_key = fleet.keys[1].secret_key;
  std::vector<Bytes> key_table(n + 1);
  for (ReplicaId id = 1; id <= n; ++id) {
    key_table[id] = fleet.keys[id].public_key;
  }
  cfg.base.public_keys = crypto::PublicKeyDir(std::move(key_table));
  cfg.map = map;
  for (const auto& wal : reopened) cfg.wals.push_back(wal.get());
  core::ProtocolHost host;  // offline: no peers, no timers needed
  host.send = [](ReplicaId, std::uint8_t, const Bytes&) {};
  host.broadcast = [](std::uint8_t, const Bytes&) {};
  host.set_timer = [](Duration, std::function<void()>) {};
  ShardedSmr revived(std::move(cfg), host);
  DtxCoordinator revived_dtx(revived, [](Duration, std::function<void()>) {});
  revived_dtx.rebuild_from_logs();
  EXPECT_EQ(revived_dtx.committed(), 1U);
  EXPECT_EQ(revived_dtx.aborted(), 0U);
  EXPECT_EQ(revived_dtx.in_flight(), 0U);
  reopened.clear();
  std::filesystem::remove_all(root);
}

// The group a serving node checks a retry against is the group
// submit_request placed the request in: for a k=v payload that is the
// key's group, not the raw payload's.
TEST(ShardedSmr, RetryLookupFindsTheGroupThatExecutedTheRequest) {
  const std::uint32_t n = 4, shards = 4;
  ShardedFleet fleet(n, shards);
  const ShardedSmr& entry = *fleet.nodes[1];
  Bytes payload;
  for (int i = 0;; ++i) {
    payload = to_bytes("key-" + std::to_string(i) + "=value");
    const ShardId raw =
        entry.placement().shard_of(ByteSpan(payload.data(), payload.size()));
    if (raw != entry.owner_of(payload)) break;
  }
  ASSERT_TRUE(fleet.nodes[1]->submit_request(4'242, 1, payload));
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (ReplicaId id = 1; id <= n; ++id) {
    const ShardedSmr& node = *fleet.nodes[id];
    EXPECT_EQ(node.group(node.owner_of(payload)).last_executed_seq(4'242), 1U)
        << "replica " << id;
  }
}

}  // namespace
}  // namespace probft::shard
