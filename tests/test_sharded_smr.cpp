// Sharded SMR service (src/shard): S consensus groups multiplexed over
// one simulated connection per node must (1) route every request to the
// group owning its payload bytes and agree per shard across the fleet,
// (2) produce per-shard logs bit-identical to an S = 1-equivalent plain
// SmrReplica fleet run with the same leader offset — multiplexing is
// scheduling, never content, (3) commit cross-shard transactions in
// exactly 1 + D entries and reconstruct dtx state from the per-shard
// WALs after a crash, also with an APPLY still pending at the kill,
// (4) keep sibling shards committing while shard 0's leader goes silent
// (the view change is per group, not fleet-wide), (5) speak the
// single-group wire with one group, (6) ignore dtx bookkeeping bytes
// from ordinary clients and refuse the trackers' reserved client ids,
// (7) find a retry's dedup state in the group that ordered the request,
// and (8) drop a forward sent under another shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "net/network.hpp"
#include "shard/dtx.hpp"
#include "shard/sharded_smr.hpp"
#include "sim/scenario.hpp"
#include "sim/smr_fleet.hpp"
#include "smr/reads.hpp"
#include "smr/smr_replica.hpp"
#include "store/wal.hpp"

namespace probft::shard {
namespace {

/// n ShardedSmr nodes (each S groups) over the simulated network, with a
/// DtxCoordinator per node driving off its execution stream — the same
/// wiring the node binary uses, minus sockets.
struct ShardedFleet : sim::SmrFleet {
  ShardedFleet(std::uint32_t n, std::uint32_t shards,
               smr::SmrOptions options = {}, std::uint64_t seed = 1,
               net::LatencyConfig latency = {},
               std::vector<std::string> wal_dirs = {}, std::uint32_t f = 0,
               double l = 2.0)
      : sim::SmrFleet(make_config(n, shards, options, seed, latency,
                                  std::move(wal_dirs), f, l)) {}

  /// Runs until every node's aggregate execution count reaches `expect`.
  bool run_until_executed(std::uint64_t expect,
                          TimePoint deadline = 120'000'000) {
    return sim::SmrFleet::run_until_executed(expect, deadline);
  }

  void expect_per_shard_agreement() {
    const std::uint32_t shards = node(1).shard_count();
    for (ShardId s = 0; s < shards; ++s) {
      for (ReplicaId id = 2; id <= config().n; ++id) {
        EXPECT_EQ(node(id).log_digest(s), node(1).log_digest(s))
            << "shard " << s << " diverged at replica " << id;
      }
    }
  }

 private:
  static sim::SmrFleetConfig make_config(std::uint32_t n, std::uint32_t shards,
                                         smr::SmrOptions options,
                                         std::uint64_t seed,
                                         net::LatencyConfig latency,
                                         std::vector<std::string> wal_dirs,
                                         std::uint32_t f, double l) {
    sim::SmrFleetConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.l = l;
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.smr = options;
    cfg.latency = latency;
    cfg.wal_dirs = std::move(wal_dirs);
    return cfg;
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
    const sim::FleetKeys keys = sim::derive_keys(*suite, n, seed);
    replicas.resize(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      smr::SmrConfig cfg;
      cfg.id = id;
      cfg.n = n;
      cfg.suite = suite.get();
      cfg.secret_key = keys.pairs[id].secret_key;
      cfg.public_keys = keys.public_keys;
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

/// One mined key per shard: keys[s] places in shard s.
std::vector<Bytes> dtx_keys(std::uint32_t shards, const std::string& stem) {
  std::vector<Bytes> keys;
  for (ShardId s = 0; s < shards; ++s) {
    for (std::uint64_t nonce = 0;; ++nonce) {
      Bytes key = to_bytes(stem + "-" + std::to_string(nonce));
      if (shard_of(shards, ByteSpan(key.data(), key.size())) == s) {
        keys.push_back(std::move(key));
        break;
      }
    }
  }
  return keys;
}

Bytes dtx_payload(std::uint32_t shards, const std::string& stem) {
  return DtxCoordinator::encode_request(dtx_keys(shards, stem));
}

/// The dtx log-entry wire: magic ‖ txid ‖ fields ‖ u32-counted keys.
Bytes begin_entry(std::uint64_t txid, std::uint64_t origin_client,
                  std::uint64_t origin_seq, const std::vector<Bytes>& keys) {
  Writer w;
  w.raw(to_bytes("DXB1"));
  w.u64(txid);
  w.u64(origin_client);
  w.u64(origin_seq);
  w.vec(keys, [](Writer& wr, const Bytes& key) { wr.bytes(key); });
  return std::move(w).take();
}

Bytes apply_entry(std::uint64_t txid, ShardId shard,
                  const std::vector<Bytes>& slice) {
  Writer w;
  w.raw(to_bytes("DXA1"));
  w.u64(txid);
  w.u32(shard);
  w.vec(slice, [](Writer& wr, const Bytes& key) { wr.bytes(key); });
  return std::move(w).take();
}

/// Positions of `group`'s retained log entries submitted by `client`.
std::vector<std::size_t> entries_by(const smr::SmrReplica& group,
                                    std::uint64_t client) {
  std::vector<std::size_t> at;
  const std::vector<smr::LogEntry>& log = group.entries();
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].client == client) at.push_back(i);
  }
  return at;
}

// Requests submitted at ONE node must land in the group owning their
// payload bytes — on every node — and sibling groups' logs must agree
// fleet-wide.
TEST(ShardedSmr, DemuxRoutesEveryRequestToItsOwningGroup) {
  const std::uint32_t n = 4, shards = 4;
  const std::uint64_t commands = 24;
  ShardedFleet fleet(n, shards);
  std::map<ShardId, std::uint64_t> owned;
  for (std::uint64_t i = 1; i <= commands; ++i) {
    Bytes payload = to_bytes("op-" + std::to_string(i));
    ++owned[fleet.node(1).shard_of(ByteSpan(payload.data(), payload.size()))];
    ASSERT_TRUE(
        fleet.node(1).submit_request(9000 + i, 1, std::move(payload)));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(commands));
  for (ShardId s = 0; s < shards; ++s) {
    for (ReplicaId id = 1; id <= n; ++id) {
      EXPECT_EQ(fleet.node(id).group(s).executed_commands(), owned[s])
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
  std::vector<std::vector<std::pair<std::uint64_t, Bytes>>> slice(shards);
  for (std::uint64_t i = 1; i <= commands; ++i) {
    Bytes payload = to_bytes("op-" + std::to_string(i));
    const ShardId s =
        shard_of(shards, ByteSpan(payload.data(), payload.size()));
    slice[s].emplace_back(9000 + i, payload);
    ASSERT_TRUE(
        fleet.node(1).submit_request(9000 + i, 1, std::move(payload)));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(commands));
  fleet.expect_per_shard_agreement();

  for (ShardId s = 0; s < shards; ++s) {
    // S = 1-equivalent: a plain fleet with this group's leader offset,
    // fed only this shard's commands in the same relative order.
    net::Simulator sim;
    net::Network plain_net(sim, n, /*seed=*/1, fifo);
    const auto suite = crypto::make_sim_suite();
    const sim::FleetKeys keys = sim::derive_keys(*suite, n, 1);
    std::vector<std::unique_ptr<smr::SmrReplica>> replicas(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      smr::SmrConfig cfg;
      cfg.id = id;
      cfg.n = n;
      cfg.f = 0;
      cfg.pipeline = options;
      cfg.leader_offset = s;
      cfg.suite = suite.get();
      cfg.secret_key = keys.pairs[id].secret_key;
      cfg.public_keys = keys.public_keys;
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
    EXPECT_EQ(fleet.node(1).log_digest(s), replicas[1]->log_digest())
        << "shard " << s
        << ": multiplexed log diverged from the single-group fleet";
  }
}

// Cross-shard transactions: every participant group commits the APPLY
// entry (exactly 1 + S entries per tx, fleet-wide agreement), and a
// replica rebuilt from its per-shard WALs reconstructs both the logs and
// the coordinator's view of every finished transaction.
TEST(ShardedSmr, DtxCommitsAtomicallyAndSurvivesWalRecovery) {
  const std::uint32_t n = 4, shards = 2;
  const std::uint64_t commands = 8, dtx_count = 2;
  const auto root = std::filesystem::temp_directory_path() /
                    ("probft-shard-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  std::uint64_t committed_cb = 0;
  {
    // Replica 1 runs durable (root/shard-<s>); everyone else is
    // memory-only.
    ShardedFleet fleet(n, shards, {}, /*seed=*/1, {}, {"", root.string()});
    fleet.dtx(1).set_on_complete(
        [&committed_cb](std::uint64_t, std::uint64_t, std::uint64_t) {
          ++committed_cb;
        });
    for (std::uint64_t i = 1; i <= commands; ++i) {
      ASSERT_TRUE(fleet.node(1).submit_request(
          9000 + i, 1, to_bytes("op-" + std::to_string(i))));
    }
    fleet.start();
    for (std::uint64_t j = 0; j < dtx_count; ++j) {
      ASSERT_TRUE(fleet.dtx(1).submit(
          88'000 + j, 1,
          dtx_payload(shards, "dtx-" + std::to_string(j))));
    }
    const std::uint64_t expect = commands + dtx_count * (1 + shards);
    ASSERT_TRUE(fleet.run_until_executed(expect));
    fleet.expect_per_shard_agreement();
    for (ReplicaId id = 1; id <= n; ++id) {
      EXPECT_EQ(fleet.node(id).executed_commands(), expect)
          << "replica " << id;
      EXPECT_EQ(fleet.dtx(id).committed(), dtx_count) << "replica " << id;
      EXPECT_EQ(fleet.dtx(id).in_flight(), 0u) << "replica " << id;
    }
    EXPECT_EQ(committed_cb, dtx_count);

    // Crash-equivalent: record the digests, then drop the fleet (the
    // WALs keep replica 1's history).
    std::vector<std::string> digests(shards);
    for (ShardId s = 0; s < shards; ++s) {
      digests[s] = fleet.node(1).log_digest(s);
    }
    fleet.kill(1);

    // Restart: fresh WAL handles over the same directories, a fresh
    // service recovered from them, dtx state rebuilt from the logs.
    std::vector<std::unique_ptr<store::Wal>> reopened;
    ShardedSmrConfig cfg;
    cfg.base.id = 1;
    cfg.base.n = n;
    cfg.base.f = 0;
    cfg.base.suite = &fleet.suite();
    cfg.base.secret_key = fleet.keys().pairs[1].secret_key;
    cfg.base.public_keys = fleet.keys().public_keys;
    cfg.shard_count = shards;
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

// The group view (the view new slots start in) is per group: shard 0's
// view change past its silent leader must not move any sibling group off
// view 1.
TEST(ShardedSmr, SilentShardLeaderMovesOnlyItsOwnGroupsView) {
  constexpr std::uint32_t kShards = 4;
  ShardedFleet fleet(4, kShards, {}, /*seed=*/1, {}, {}, /*f=*/1,
                     /*l=*/1.5);  // q = 3 of 4
  const ReplicaId silenced = lead_replica(0, 4);
  fleet.network().set_payload_filter([silenced](ReplicaId from, ReplicaId,
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
  std::vector<int> per_shard(kShards, 0);
  std::uint64_t submitted = 0;
  for (std::uint64_t i = 0; submitted < 2 * kShards; ++i) {
    Bytes payload = to_bytes("k-" + std::to_string(i));
    const ShardId s =
        shard_of(kShards, ByteSpan(payload.data(), payload.size()));
    if (per_shard[s] == 2) continue;
    ++per_shard[s];
    ASSERT_TRUE(fleet.node(entry).submit_request(500 + i, 1, payload));
    ++submitted;
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(submitted));
  fleet.expect_per_shard_agreement();
  for (ReplicaId id = 1; id <= 4; ++id) {
    for (ShardId s = 1; s < kShards; ++s) {
      EXPECT_EQ(fleet.node(id).group(s).view(), 1U)
          << "replica " << id << " shard " << s;
    }
    if (id != silenced) {
      EXPECT_GT(fleet.node(id).group(0).view(), 1U)
          << "replica " << id;
    }
  }
}

// A one-group service is the single-group deployment: over a jittered
// network it must send exactly the frames a bare SmrReplica fleet sends
// (same tags, same bytes — no shard envelope, no kShardForwardTag) and
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
    ASSERT_TRUE(sharded.node(entry).submit_request(9000 + i, 1, payload));
    ASSERT_TRUE(plain.replicas[entry]->submit_request(9000 + i, 1, payload));
  }
  sharded.start();
  for (ReplicaId id = 1; id <= n; ++id) plain.replicas[id]->start();
  ASSERT_TRUE(sharded.run_until_executed(commands));
  ASSERT_TRUE(plain.run_until_executed(commands));

  const net::TransportStats& one = sharded.network().stats();
  const net::TransportStats& bare = plain.net->stats();
  EXPECT_EQ(one.sends_for(kShardTag), 0U);
  EXPECT_EQ(one.sends_for(kShardForwardTag), 0U);
  EXPECT_GT(one.sends_for(net::tags::kSmrForward), 0U)
      << "the workload must exercise the forward path";
  EXPECT_EQ(one.sends_by_tag, bare.sends_by_tag);
  EXPECT_EQ(one.bytes_sent, bare.bytes_sent);
  for (ReplicaId id = 1; id <= n; ++id) {
    EXPECT_EQ(sharded.node(id).log_digest(0),
              plain.replicas[id]->log_digest())
        << "replica " << id;
  }
}

// Dtx bookkeeping is trusted only under the synthetic client that owns
// its phase. An ordinary client's BEGIN (naming other keys) and APPLY
// for someone else's transaction, executing ahead of the real ones, are
// data: the real BEGIN and every real APPLY still commit, live and after
// a rebuild from the WAL. Were the forged APPLY trusted, no replica
// would submit the real shard-0 APPLY.
TEST(ShardedSmr, ForgedDtxBookkeepingFromAnOrdinaryClientIsData) {
  const std::uint32_t n = 4, shards = 2;
  const std::uint64_t origin_client = 88'000, origin_seq = 1;
  const std::uint64_t begin_forger = 7'777, apply_forger = 7'778;
  const auto root = std::filesystem::temp_directory_path() /
                    ("probft-forge-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  ShardedFleet fleet(n, shards, {}, /*seed=*/1, {}, {"", root.string()});
  // Mine a transaction whose two forgeries both place in shard 0 — its
  // coordinator group and one of its participants — so each forgery is
  // ordered against its real counterpart in one log.
  std::vector<Bytes> keys;
  Bytes request;
  Bytes forged_begin;
  Bytes forged_apply;
  std::uint64_t txid = 0;
  for (int j = 0;; ++j) {
    keys = dtx_keys(shards, "victim-" + std::to_string(j));
    request = DtxCoordinator::encode_request(keys);
    txid = DtxCoordinator::txid_of(origin_client, origin_seq, request);
    forged_begin = begin_entry(txid, begin_forger, 1,
                               dtx_keys(shards, "forged-" + std::to_string(j)));
    forged_apply = apply_entry(txid, 0, {keys[0]});
    if (fleet.node(1).owner_of(forged_begin) == 0 &&
        fleet.node(1).owner_of(forged_apply) == 0) {
      break;
    }
  }
  EXPECT_FALSE(DtxCoordinator::is_bookkeeping(0, begin_forger, forged_begin));
  EXPECT_FALSE(DtxCoordinator::is_bookkeeping(0, apply_forger, forged_apply));

  ASSERT_TRUE(fleet.node(1).submit_request(begin_forger, 1, forged_begin));
  ASSERT_TRUE(fleet.node(1).submit_request(apply_forger, 1, forged_apply));
  fleet.start();
  ASSERT_TRUE(fleet.dtx(1).submit(origin_client, origin_seq, request));
  const std::uint64_t expect = 2 + 1 + shards;
  ASSERT_TRUE(fleet.run_until_executed(expect));
  fleet.expect_per_shard_agreement();

  const std::uint64_t coord = DtxCoordinator::coord_client(txid);
  for (ReplicaId id = 1; id <= n; ++id) {
    const ShardedSmr& node = fleet.node(id);
    const smr::SmrReplica& group0 = node.group(0);
    const std::vector<std::size_t> begins = entries_by(group0, coord);
    ASSERT_EQ(begins.size(), 1U) << "replica " << id;
    EXPECT_EQ(group0.entries()[begins[0]].payload,
              begin_entry(txid, origin_client, origin_seq, keys));
    EXPECT_LT(entries_by(group0, begin_forger).at(0), begins[0])
        << "the forged BEGIN must land before the real one";
    for (ShardId p = 0; p < shards; ++p) {
      const std::vector<std::size_t> applies =
          entries_by(node.group(p), DtxCoordinator::part_client(txid, p));
      ASSERT_EQ(applies.size(), 1U) << "replica " << id << " shard " << p;
      EXPECT_EQ(node.group(p).entries()[applies[0]].payload,
                apply_entry(txid, p, {keys[p]}));
    }
    EXPECT_LT(entries_by(group0, apply_forger).at(0),
              entries_by(group0, DtxCoordinator::part_client(txid, 0)).at(0))
        << "the forged APPLY must land before the real one";
    EXPECT_EQ(node.executed_commands(), expect) << "replica " << id;
    EXPECT_EQ(fleet.dtx(id).committed(), 1U) << "replica " << id;
  }

  // Rebuild replica 1's tracker from its WALs alone.
  fleet.kill(1);
  std::vector<std::unique_ptr<store::Wal>> reopened =
      open_group_wals(root.string(), shards, /*fsync=*/false);
  ShardedSmrConfig cfg;
  cfg.base.id = 1;
  cfg.base.n = n;
  cfg.base.suite = &fleet.suite();
  cfg.base.secret_key = fleet.keys().pairs[1].secret_key;
  cfg.base.public_keys = fleet.keys().public_keys;
  cfg.shard_count = shards;
  for (const auto& wal : reopened) cfg.wals.push_back(wal.get());
  core::ProtocolHost host;  // offline: no peers, no timers needed
  host.send = [](ReplicaId, std::uint8_t, const Bytes&) {};
  host.broadcast = [](std::uint8_t, const Bytes&) {};
  host.set_timer = [](Duration, std::function<void()>) {};
  ShardedSmr revived(std::move(cfg), host);
  DtxCoordinator revived_dtx(revived, [](Duration, std::function<void()>) {});
  revived_dtx.rebuild_from_logs();
  EXPECT_EQ(revived_dtx.committed(), 1U);
  EXPECT_EQ(revived_dtx.in_flight(), 0U);
  reopened.clear();
  std::filesystem::remove_all(root);
}

// A replica killed after BEGIN executed there but before any APPLY
// executed anywhere rebuilds the transaction from its WALs, drives its
// APPLYs again and completes it. The re-driven APPLYs are absorbed by
// dedup: every replica, the restarted one included, ends with exactly
// 1 + S entries and one APPLY per participant.
TEST(ShardedSmr, PendingApplyCompletesAfterRestart) {
  const std::uint32_t n = 4, shards = 2;
  const ReplicaId victim = 4;  // leads neither group
  const auto root = std::filesystem::temp_directory_path() /
                    ("probft-pending-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::vector<std::string> wal_dirs(n + 1);
  wal_dirs[victim] = root.string();
  ShardedFleet fleet(n, shards, {}, /*seed=*/1, {}, wal_dirs, /*f=*/1,
                     /*l=*/1.5);  // q = 3 of 4: the survivors commit
  const std::vector<Bytes> keys = dtx_keys(shards, "pending");
  const Bytes request = DtxCoordinator::encode_request(keys);
  const std::uint64_t txid = DtxCoordinator::txid_of(88'000, 1, request);
  const auto applied = [&fleet, txid](ReplicaId id, ShardId p) {
    return fleet.node(id).group(p).last_executed_seq(
        DtxCoordinator::part_client(txid, p));
  };
  fleet.start();
  ASSERT_TRUE(fleet.dtx(1).submit(88'000, 1, request));
  ASSERT_TRUE(fleet.run_until(
      [&] {
        return fleet.node(victim).group(0).last_executed_seq(
                   DtxCoordinator::coord_client(txid)) == 1;
      },
      120'000'000));
  for (ReplicaId id = 1; id <= n; ++id) {
    for (ShardId p = 0; p < shards; ++p) {
      ASSERT_EQ(applied(id, p), 0U) << "replica " << id << " shard " << p
                                    << ": an APPLY executed before the kill";
    }
  }

  fleet.kill(victim);
  ASSERT_TRUE(fleet.run_until(
      [&] {
        for (ReplicaId id = 1; id <= n; ++id) {
          if (id != victim && fleet.dtx(id).committed() != 1) return false;
        }
        return true;
      },
      240'000'000));
  fleet.restart(victim);
  ASSERT_TRUE(fleet.run_until(
      [&] {
        return fleet.dtx(victim).committed() == 1 &&
               fleet.all_executed(1 + shards);
      },
      480'000'000));
  fleet.expect_per_shard_agreement();
  for (ReplicaId id = 1; id <= n; ++id) {
    EXPECT_EQ(fleet.node(id).executed_commands(), 1 + shards)
        << "replica " << id;
    EXPECT_EQ(fleet.dtx(id).committed(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.dtx(id).in_flight(), 0U) << "replica " << id;
    for (ShardId p = 0; p < shards; ++p) {
      EXPECT_EQ(entries_by(fleet.node(id).group(p),
                           DtxCoordinator::part_client(txid, p))
                    .size(),
                1U)
          << "replica " << id << " shard " << p;
    }
  }
  std::filesystem::remove_all(root);
}

// Client ids with bit 63 set belong to the dtx trackers. A client that
// knows a victim's DTX1 request can compute its coordinator id, but
// submit_request refuses that id (and every other reserved one), so
// nothing it sends under them executes.
TEST(ShardedSmr, ReservedClientIdsAreRefused) {
  const std::uint32_t n = 4, shards = 2;
  ShardedFleet fleet(n, shards);
  const std::vector<Bytes> keys = dtx_keys(shards, "victim");
  const std::uint64_t txid = DtxCoordinator::txid_of(
      88'000, 1, DtxCoordinator::encode_request(keys));
  const std::uint64_t coord = DtxCoordinator::coord_client(txid);
  const Bytes forged = begin_entry(txid, 7'777, 1, {keys[0]});
  ASSERT_TRUE(DtxCoordinator::is_bookkeeping(0, coord, forged));
  for (ShardId p = 0; p < shards; ++p) {
    EXPECT_NE(DtxCoordinator::part_client(txid, p) & kReservedClientBit, 0U);
  }

  EXPECT_FALSE(fleet.node(1).submit_request(coord, 1, forged));
  EXPECT_FALSE(
      fleet.node(1).submit_request(kReservedClientBit | 9'001, 1,
                                   to_bytes("reserved")));
  ASSERT_TRUE(fleet.node(1).submit_request(9'001, 1, to_bytes("op-1")));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (ReplicaId id = 1; id <= n; ++id) {
    EXPECT_EQ(fleet.node(id).executed_commands(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.dtx(id).in_flight(), 0U) << "replica " << id;
  }
}

// kShardForwardTag carries the sender's shard count. A node started with
// another --shards places keys differently, so its forward is dropped;
// one under the same count is enqueued.
TEST(ShardedSmr, ForwardUnderAnotherShardCountIsDropped) {
  const std::uint32_t shards = 2;
  ShardedFleet fleet(4, shards);
  const auto forward = [](std::uint32_t shard_count, std::uint64_t client) {
    Writer w;
    w.u32(shard_count);
    w.u32(0);
    smr::Request{client, 1, to_bytes("op")}.encode(w);
    return std::move(w).take();
  };
  ShardedSmr& leader = fleet.node(lead_replica(0, 4));
  leader.on_message(2, kShardForwardTag, forward(4, 501));
  leader.on_message(2, kShardForwardTag, forward(shards, 502));
  EXPECT_FALSE(leader.group(0).has_pending(501, 1));
  EXPECT_TRUE(leader.group(0).has_pending(502, 1));
}

// The group a serving node checks a retry against is the group
// submit_request placed the request in: for a k=v payload that is the
// key's group, not the raw payload's.
TEST(ShardedSmr, RetryLookupFindsTheGroupThatExecutedTheRequest) {
  const std::uint32_t n = 4, shards = 4;
  ShardedFleet fleet(n, shards);
  const ShardedSmr& entry = fleet.node(1);
  Bytes payload;
  for (int i = 0;; ++i) {
    payload = to_bytes("key-" + std::to_string(i) + "=value");
    const ShardId raw =
        entry.shard_of(ByteSpan(payload.data(), payload.size()));
    if (raw != entry.owner_of(payload)) break;
  }
  ASSERT_TRUE(fleet.node(1).submit_request(4'242, 1, payload));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (ReplicaId id = 1; id <= n; ++id) {
    const ShardedSmr& node = fleet.node(id);
    EXPECT_EQ(node.group(node.owner_of(payload)).last_executed_seq(4'242), 1U)
        << "replica " << id;
  }
}

}  // namespace
}  // namespace probft::shard
