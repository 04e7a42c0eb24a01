// Pipelined, batched state machine replication over ProBFT (src/smr): a
// fleet of SmrReplicas on the simulated network must produce identical
// logs, execute each (client, seq) exactly once, keep at most
// window + retire_tail consensus instances alive, and open no slots while
// idle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "smr/smr_replica.hpp"

namespace probft::smr {
namespace {

struct Fleet {
  net::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<crypto::CryptoSuite> suite;
  std::vector<crypto::KeyPair> keys;
  std::vector<std::unique_ptr<SmrReplica>> replicas;  // 1-based
  std::vector<std::vector<Bytes>> commits;            // per replica

  explicit Fleet(std::uint32_t n, SmrOptions options = {},
                 std::uint64_t seed = 1, std::uint32_t f = 0,
                 double l = 2.0) {
    net::LatencyConfig latency;
    latency.min_delay = 500;
    latency.max_delay_post = 4'000;
    net = std::make_unique<net::Network>(sim, n, seed, latency);
    suite = crypto::make_sim_suite();
    keys.resize(n + 1);
    std::vector<Bytes> key_table(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      keys[id] = suite->keygen(mix64(seed, id));
      key_table[id] = keys[id].public_key;
    }
    const crypto::PublicKeyDir public_keys(std::move(key_table));
    commits.resize(n + 1);
    replicas.resize(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      SmrConfig cfg;
      cfg.id = id;
      cfg.n = n;
      cfg.f = f;
      cfg.l = l;
      cfg.pipeline = options;
      cfg.suite = suite.get();
      cfg.secret_key = keys[id].secret_key;
      cfg.public_keys = public_keys;
      cfg.sync.base_timeout = 100'000;
      core::ProtocolHost hooks;
      hooks.send = [this, id](ReplicaId to, std::uint8_t tag, const Bytes& m) {
        net->send(id, to, tag, m);
      };
      hooks.broadcast = [this, id](std::uint8_t tag, const Bytes& m) {
        net->broadcast(id, tag, m);
      };
      hooks.set_timer = [this](Duration d, std::function<void()> fn) {
        sim.schedule_after(d, std::move(fn));
      };
      hooks.on_commit = [this, id](std::uint64_t, const Bytes& command) {
        commits[id].push_back(command);
      };
      replicas[id] = std::make_unique<SmrReplica>(std::move(cfg), hooks);
      net->register_handler(
          id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
            replicas[id]->on_message(from, tag, m);
          });
    }
  }

  void start_all() {
    for (std::size_t id = 1; id < replicas.size(); ++id) {
      replicas[id]->start();
    }
  }

  /// Runs until every replica executed `commands` requests (or deadline).
  bool run_until_executed(std::uint64_t commands,
                          TimePoint deadline = 300'000'000) {
    while (sim.now() < deadline) {
      bool all = true;
      for (std::size_t id = 1; id < replicas.size(); ++id) {
        if (replicas[id]->executed_commands() < commands) {
          all = false;
          break;
        }
      }
      if (all) return true;
      if (!sim.step()) break;
    }
    return false;
  }
};

TEST(Smr, SingleCommandCommitsEverywhere) {
  Fleet fleet(6);
  fleet.replicas[1]->submit(to_bytes("cmd-1"));
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (ReplicaId id = 1; id <= 6; ++id) {
    ASSERT_EQ(fleet.replicas[id]->log().size(), 1U);
    EXPECT_EQ(fleet.replicas[id]->log()[0], to_bytes("cmd-1"));
  }
}

TEST(Smr, LogsAreIdenticalAcrossReplicas) {
  Fleet fleet(6);
  // Several clients submit to different replicas; non-leader submissions
  // are forwarded to the round-robin view-1 leader.
  fleet.replicas[1]->submit(to_bytes("a"));
  fleet.replicas[2]->submit(to_bytes("b"));
  fleet.replicas[3]->submit(to_bytes("c"));
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(3));
  const auto& reference = fleet.replicas[1]->log();
  ASSERT_EQ(reference.size(), 3U);
  for (ReplicaId id = 2; id <= 6; ++id) {
    EXPECT_EQ(fleet.replicas[id]->log(), reference) << "replica " << id;
    EXPECT_EQ(fleet.replicas[id]->slot_log(), fleet.replicas[1]->slot_log())
        << "replica " << id;
  }
  EXPECT_TRUE(fleet.replicas[4]->has_committed(to_bytes("b")));
}

TEST(Smr, BatchingAmortizesSlots) {
  SmrOptions options;
  options.batch_max_commands = 16;
  options.window = 4;
  Fleet fleet(4, options);
  for (int i = 0; i < 32; ++i) {
    fleet.replicas[1]->submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(32));
  // 32 commands in batches of 16: exactly 2 slots.
  EXPECT_EQ(fleet.replicas[1]->committed_slots(), 2U);
  EXPECT_EQ(fleet.replicas[1]->log().size(), 32U);
}

TEST(Smr, WindowRunsSlotsConcurrently) {
  SmrOptions options;
  options.window = 4;
  options.batch_max_commands = 1;
  Fleet fleet(4, options);
  for (int i = 0; i < 8; ++i) {
    fleet.replicas[1]->submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start_all();
  // The leader must have slots 0..3 in flight before anything executed.
  bool saw_full_window = false;
  while (fleet.sim.now() < 300'000'000) {
    if (fleet.replicas[1]->next_unopened_slot() -
            fleet.replicas[1]->committed_slots() >=
        4) {
      saw_full_window = true;
      break;
    }
    if (!fleet.sim.step()) break;
  }
  EXPECT_TRUE(saw_full_window);
  ASSERT_TRUE(fleet.run_until_executed(8));
  EXPECT_EQ(fleet.replicas[1]->committed_slots(), 8U);
}

TEST(Smr, SerialWindowMatchesPipelinedLog) {
  // Acceptance: per-seed logs are bit-identical across window sizes for
  // fault-free runs — the pipeline only changes scheduling, not content.
  auto run = [](std::uint32_t window) {
    SmrOptions options;
    options.window = window;
    options.batch_max_commands = 4;
    Fleet fleet(5, options, /*seed=*/7);
    for (int i = 0; i < 16; ++i) {
      fleet.replicas[1]->submit(to_bytes("cmd-" + std::to_string(i)));
    }
    fleet.start_all();
    EXPECT_TRUE(fleet.run_until_executed(16));
    return fleet.replicas[1]->slot_log();
  };
  const auto serial = run(1);
  const auto pipelined = run(8);
  EXPECT_EQ(serial, pipelined);
}

TEST(Smr, IdleFleetOpensNoSlots) {
  Fleet fleet(4);
  fleet.start_all();  // nobody submits anything
  fleet.sim.run_until(5'000'000);
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replicas[id]->committed_slots(), 0U);
    EXPECT_EQ(fleet.replicas[id]->next_unopened_slot(), 0U);
    EXPECT_EQ(fleet.replicas[id]->open_instances(), 0U);
  }
  // Demand-driven opening: an idle fleet sends nothing at all.
  EXPECT_EQ(fleet.net->stats().sends, 0U);
}

TEST(Smr, PacingTimerFlushesPartialBatch) {
  SmrOptions options;
  options.batch_max_commands = 64;  // never fills
  options.batch_timeout = 10'000;
  Fleet fleet(4, options);
  fleet.replicas[1]->submit(to_bytes("lonely"));
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(1));
  EXPECT_EQ(fleet.replicas[2]->log()[0], to_bytes("lonely"));
}

TEST(Smr, RetriedRequestExecutesExactlyOnce) {
  Fleet fleet(4);
  const std::uint64_t client = 4242;
  // The client submits to replica 1, then retries the same request at
  // replica 2 (e.g. after a timeout): the request must execute once.
  EXPECT_TRUE(fleet.replicas[1]->submit_request(client, 1, to_bytes("pay")));
  EXPECT_TRUE(fleet.replicas[2]->submit_request(client, 1, to_bytes("pay")));
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(1));
  fleet.sim.run_until(fleet.sim.now() + 2'000'000);
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replicas[id]->executed_commands(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.replicas[id]->last_executed_seq(client), 1U);
    EXPECT_EQ(fleet.commits[id].size(), 1U);
  }
}

TEST(Smr, DuplicateSubmitRejectedLocally) {
  Fleet fleet(4);
  EXPECT_TRUE(fleet.replicas[1]->submit_request(7, 3, to_bytes("x")));
  EXPECT_FALSE(fleet.replicas[1]->submit_request(7, 3, to_bytes("x")));
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(1));
  // Post-execution retry is also a no-op.
  EXPECT_FALSE(fleet.replicas[1]->submit_request(7, 3, to_bytes("x")));
  EXPECT_FALSE(fleet.replicas[1]->submit_request(7, 2, to_bytes("old")));
}

TEST(Smr, PipelinedForwardsAllExecute) {
  // Regression: a pipelined client's requests submitted at a non-leader
  // are forwarded one by one, and the forwards cross on the link. Dedup
  // keeps only the highest executed seq per client, so a later seq that
  // the leader batched first used to drop the earlier ones for good.
  SmrOptions options;
  options.batch_max_commands = 4;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Fleet fleet(4, options, seed);
    fleet.start_all();
    std::vector<Bytes> expected;
    for (std::uint64_t seq = 1; seq <= 12; ++seq) {
      expected.push_back(to_bytes("cmd-" + std::to_string(seq)));
      ASSERT_TRUE(fleet.replicas[2]->submit_request(77, seq, expected.back()));
    }
    EXPECT_TRUE(fleet.run_until_executed(12, /*deadline=*/30'000'000))
        << "seed " << seed << ": replica 1 executed "
        << fleet.replicas[1]->executed_commands() << " of 12";
    for (ReplicaId id = 1; id <= 4; ++id) {
      EXPECT_EQ(fleet.commits[id], expected)
          << "seed " << seed << " replica " << id;
    }
  }
}

TEST(Smr, NewSlotsStartInTheViewThatLastDecided) {
  // Once a view change passed a silent leader by, later slots start in
  // the view that decided instead of each waiting out the view-1 timeout
  // at the dead leader (one timeout per slot before the engine view).
  SmrOptions options;
  options.window = 2;
  options.batch_max_commands = 2;
  Fleet fleet(4, options, /*seed=*/1, /*f=*/1, /*l=*/1.5);  // q = 3 of 4
  const Duration base_timeout = 100'000;  // Fleet's sync.base_timeout
  ASSERT_TRUE(fleet.replicas[2]->submit_request(77, 1, to_bytes("warm")));
  fleet.start_all();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replicas[id]->engine_view(), 1U);
  }

  const TimePoint silenced_at = fleet.sim.now();
  fleet.net->set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 1 || to == 1;
  });
  constexpr std::uint64_t kCommands = 12;  // 6 slots of 2
  for (std::uint64_t seq = 2; seq <= kCommands + 1; ++seq) {
    ASSERT_TRUE(fleet.replicas[2]->submit_request(
        77, seq, to_bytes("cmd-" + std::to_string(seq))));
  }
  while (fleet.sim.now() < silenced_at + 60'000'000) {
    bool all = true;
    for (ReplicaId id = 2; id <= 4; ++id) {
      all = all && fleet.replicas[id]->executed_commands() == kCommands + 1;
    }
    if (all || !fleet.sim.step()) break;
  }
  const Duration elapsed = fleet.sim.now() - silenced_at;
  for (ReplicaId id = 2; id <= 4; ++id) {
    EXPECT_EQ(fleet.replicas[id]->executed_commands(), kCommands + 1)
        << "replica " << id;
    EXPECT_EQ(fleet.replicas[id]->last_executed_seq(77), kCommands + 1);
    EXPECT_GE(fleet.replicas[id]->committed_slots(), 1U + 6U);
    EXPECT_GT(fleet.replicas[id]->engine_view(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.replicas[id]->log_digest(),
              fleet.replicas[2]->log_digest());
  }
  EXPECT_LT(elapsed, 3 * base_timeout) << "silence to last execution";
}

TEST(Smr, RetirementBoundsLiveInstances) {
  // Regression for the unbounded instances_ map: a long log (max_slots ≫
  // window) must not keep every decided core::Replica alive.
  SmrOptions options;
  options.window = 4;
  options.batch_max_commands = 1;
  options.retire_tail = 2;
  options.max_slots = 1024;
  Fleet fleet(4, options);
  for (int i = 0; i < 48; ++i) {
    fleet.replicas[1]->submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start_all();
  const std::size_t bound = options.window + options.retire_tail;
  while (fleet.sim.now() < 300'000'000) {
    bool all = true;
    for (ReplicaId id = 1; id <= 4; ++id) {
      EXPECT_LE(fleet.replicas[id]->open_instances(), bound)
          << "replica " << id << " at " << fleet.sim.now();
      if (fleet.replicas[id]->executed_commands() < 48) all = false;
    }
    if (all) break;
    if (!fleet.sim.step()) break;
  }
  for (ReplicaId id = 1; id <= 4; ++id) {
    ASSERT_EQ(fleet.replicas[id]->executed_commands(), 48U);
    EXPECT_EQ(fleet.replicas[id]->committed_slots(), 48U);
    EXPECT_LE(fleet.replicas[id]->open_instances(), bound);
  }
}

TEST(Smr, StragglerCatchesUpViaHints) {
  // Replica 6 is partitioned while the first command decides (at n = 6
  // the q = ⌈2√6⌉ = 5 quorum is reachable without it); the others
  // execute, retire the slot, and freeze its instance. New traffic after
  // the heal makes replica 6 open the missed slot, and decided-value
  // hints from its peers let it catch up.
  SmrOptions options;
  options.window = 2;
  options.retire_tail = 0;
  Fleet fleet(6, options);
  fleet.net->set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 6 || to == 6;
  });
  fleet.replicas[1]->submit(to_bytes("first"));
  fleet.start_all();
  while (fleet.sim.now() < 100'000'000 &&
         (fleet.replicas[1]->executed_commands() < 1 ||
          fleet.replicas[2]->executed_commands() < 1 ||
          fleet.replicas[5]->executed_commands() < 1)) {
    if (!fleet.sim.step()) break;
  }
  ASSERT_EQ(fleet.replicas[1]->executed_commands(), 1U);
  ASSERT_EQ(fleet.replicas[6]->executed_commands(), 0U);

  fleet.net->clear_filter();
  fleet.replicas[1]->submit(to_bytes("second"));
  ASSERT_TRUE(fleet.run_until_executed(2));
  EXPECT_EQ(fleet.replicas[6]->log(), fleet.replicas[1]->log());
}

TEST(Smr, StragglerCatchesUpFromBeyondTheWindow) {
  // Regression: a replica that misses MORE slots than the open window
  // (here 8 decided slots vs window 2) must still recover — traffic for
  // far-future slots cannot be opened or buffered, so recovery rides
  // entirely on the catch-up pull → hint protocol.
  SmrOptions options;
  options.window = 2;
  options.batch_max_commands = 1;
  options.retire_tail = 0;
  options.catchup_timeout = 50'000;
  Fleet fleet(6, options);
  fleet.net->set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 6 || to == 6;
  });
  for (int i = 0; i < 8; ++i) {
    fleet.replicas[1]->submit(to_bytes("op-" + std::to_string(i)));
  }
  fleet.start_all();
  while (fleet.sim.now() < 150'000'000 &&
         fleet.replicas[1]->executed_commands() < 8) {
    if (!fleet.sim.step()) break;
  }
  ASSERT_EQ(fleet.replicas[1]->executed_commands(), 8U);
  ASSERT_EQ(fleet.replicas[6]->executed_commands(), 0U);

  fleet.net->clear_filter();
  fleet.replicas[1]->submit(to_bytes("after-heal"));
  ASSERT_TRUE(fleet.run_until_executed(9));
  EXPECT_EQ(fleet.replicas[6]->log(), fleet.replicas[1]->log());
  EXPECT_EQ(fleet.replicas[6]->committed_slots(), 9U);
}

TEST(Smr, ForwardFloodIsBounded) {
  // Regression: a Byzantine peer spamming unique forwarded requests must
  // hit the intake cap, not grow the queue without bound.
  SmrOptions options;
  options.max_pending_requests = 16;
  Fleet fleet(4, options);
  for (std::uint64_t i = 0; i < 200; ++i) {
    Writer w;
    Request{/*client=*/100'000 + i, /*seq=*/1, to_bytes("flood")}.encode(w);
    fleet.replicas[1]->on_message(2, kSmrForwardTag, std::move(w).take());
  }
  EXPECT_LE(fleet.replicas[1]->pending_commands(), 16U);
  // Local submissions see the same backpressure, loudly.
  Fleet small(4, options);
  for (int i = 0; i < 16; ++i) {
    small.replicas[1]->submit(to_bytes("fill-" + std::to_string(i)));
  }
  EXPECT_THROW(small.replicas[1]->submit(to_bytes("one-too-many")),
               std::overflow_error);
}

TEST(Smr, RejectsEmptyAndOversizedCommands) {
  SmrOptions options;
  options.batch_max_bytes = 256;
  Fleet fleet(4, options);
  EXPECT_THROW(fleet.replicas[1]->submit(Bytes{}), std::invalid_argument);
  EXPECT_THROW(fleet.replicas[1]->submit(Bytes(512, 0xaa)),
               std::invalid_argument);
  EXPECT_FALSE(fleet.replicas[1]->submit_request(1, 1, Bytes{}));
  EXPECT_FALSE(fleet.replicas[1]->submit_request(1, 1, Bytes(512, 0xaa)));
}

TEST(Smr, RejectsBadConfig) {
  SmrConfig cfg;  // id = 0
  EXPECT_THROW(SmrReplica(cfg, {}), std::invalid_argument);
  Fleet fleet(1);  // n = 1 just to borrow key material
  SmrConfig zero_window;
  zero_window.id = 1;
  zero_window.n = 1;
  zero_window.suite = fleet.suite.get();
  zero_window.secret_key = fleet.keys[1].secret_key;
  zero_window.public_keys = crypto::PublicKeyDir(
      std::vector<Bytes>{Bytes{}, fleet.keys[1].public_key});
  zero_window.pipeline.window = 0;
  EXPECT_THROW(SmrReplica(zero_window, {}), std::invalid_argument);
}

TEST(Smr, MalformedEnvelopesAreDropped) {
  Fleet fleet(4);
  fleet.start_all();
  fleet.replicas[1]->on_message(2, kSmrTag, Bytes{0x01});        // truncated
  fleet.replicas[1]->on_message(2, kSmrHintTag, Bytes{0x01});    // truncated
  fleet.replicas[1]->on_message(2, kSmrForwardTag, Bytes{0x01});  // truncated
  fleet.replicas[1]->on_message(2, kSmrPullTag, Bytes{0x01});    // truncated
  fleet.replicas[1]->on_message(2, 0x33, to_bytes("whatever"));  // wrong tag
  EXPECT_EQ(fleet.replicas[1]->committed_slots(), 0U);
  EXPECT_EQ(fleet.replicas[1]->next_unopened_slot(), 0U);
}

TEST(Smr, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    SmrOptions options;
    options.window = 4;
    options.batch_max_commands = 2;
    Fleet fleet(5, options, seed);
    fleet.replicas[1]->submit(to_bytes("p"));
    fleet.replicas[2]->submit(to_bytes("q"));
    fleet.replicas[1]->submit(to_bytes("r"));
    fleet.start_all();
    fleet.run_until_executed(3);
    return fleet.replicas[1]->log();
  };
  EXPECT_EQ(run_once(42), run_once(42));
}

}  // namespace
}  // namespace probft::smr
