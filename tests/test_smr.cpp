// Pipelined, batched state machine replication over ProBFT (src/smr): a
// fleet of SmrReplicas on the simulated network must produce identical
// logs, execute each (client, seq) exactly once, keep at most
// a window's worth of consensus instances alive, and open no slots while
// idle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "counting_suite.hpp"
#include "crypto/suite.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"
#include "sim/node_factory.hpp"
#include "smr/smr_replica.hpp"
#include "smr_test_fleet.hpp"

namespace probft::smr {
namespace {

/// A test fleet; tests drive each node's replica directly and see every
/// replica's executed payloads in order.
struct Fleet : testutil::SmrTestFleet {
  explicit Fleet(std::uint32_t n, SmrOptions options = {},
                 std::uint64_t seed = 1, std::uint32_t f = 0,
                 double l = 2.0)
      : testutil::SmrTestFleet(make_config(n, options, seed, f, l)) {}

 private:
  static sim::SmrFleetConfig make_config(std::uint32_t n, SmrOptions options,
                                         std::uint64_t seed, std::uint32_t f,
                                         double l) {
    sim::SmrFleetConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.l = l;
    cfg.seed = seed;
    cfg.smr = options;
    cfg.latency.min_delay = 500;
    cfg.latency.max_delay_post = 4'000;
    return cfg;
  }
};

TEST(Smr, SingleCommandCommitsEverywhere) {
  Fleet fleet(6);
  fleet.submit(1, "cmd-1");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (ReplicaId id = 1; id <= 6; ++id) {
    ASSERT_EQ(fleet.commits[id].size(), 1U);
    EXPECT_EQ(fleet.commits[id][0], to_bytes("cmd-1"));
  }
}

TEST(Smr, LogsAreIdenticalAcrossReplicas) {
  Fleet fleet(6);
  // Several clients submit to different replicas; non-leader submissions
  // are forwarded to the round-robin view-1 leader.
  fleet.submit(1, "a");
  fleet.submit(2, "b");
  fleet.submit(3, "c");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(3));
  const auto& reference = fleet.commits[1];
  ASSERT_EQ(reference.size(), 3U);
  for (ReplicaId id = 2; id <= 6; ++id) {
    EXPECT_EQ(fleet.commits[id], reference) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).slot_log(), fleet.replica(1).slot_log())
        << "replica " << id;
  }
  EXPECT_TRUE(fleet.committed(4, "b"));
}

TEST(Smr, BatchingAmortizesSlots) {
  SmrOptions options;
  options.batch_max_commands = 16;
  options.window = 4;
  Fleet fleet(4, options);
  for (int i = 0; i < 32; ++i) {
    fleet.submit(1, "op-" + std::to_string(i));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(32));
  // 32 commands in batches of 16: exactly 2 slots.
  EXPECT_EQ(fleet.replica(1).committed_slots(), 2U);
  EXPECT_EQ(fleet.commits[1].size(), 32U);
}

TEST(Smr, WindowRunsSlotsConcurrently) {
  SmrOptions options;
  options.window = 4;
  options.batch_max_commands = 1;
  Fleet fleet(4, options);
  for (int i = 0; i < 8; ++i) {
    fleet.submit(1, "op-" + std::to_string(i));
  }
  fleet.start();
  // The leader must have slots 0..3 in flight before anything executed.
  bool saw_full_window = false;
  while (fleet.sim().now() < 300'000'000) {
    if (fleet.replica(1).next_unopened_slot() -
            fleet.replica(1).committed_slots() >=
        4) {
      saw_full_window = true;
      break;
    }
    if (!fleet.sim().step()) break;
  }
  EXPECT_TRUE(saw_full_window);
  ASSERT_TRUE(fleet.run_until_executed(8));
  EXPECT_EQ(fleet.replica(1).committed_slots(), 8U);
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
      fleet.submit(1, "cmd-" + std::to_string(i));
    }
    fleet.start();
    EXPECT_TRUE(fleet.run_until_executed(16));
    return fleet.replica(1).slot_log();
  };
  const auto serial = run(1);
  const auto pipelined = run(8);
  EXPECT_EQ(serial, pipelined);
}

TEST(Smr, IdleFleetOpensNoSlots) {
  Fleet fleet(4);
  fleet.start();  // nobody submits anything
  fleet.sim().run_until(5'000'000);
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).committed_slots(), 0U);
    EXPECT_EQ(fleet.replica(id).next_unopened_slot(), 0U);
    EXPECT_EQ(fleet.replica(id).open_instances(), 0U);
  }
  // Demand-driven opening: an idle fleet sends nothing at all.
  EXPECT_EQ(fleet.network().stats().sends, 0U);
}

TEST(Smr, PacingTimerFlushesPartialBatch) {
  SmrOptions options;
  options.batch_max_commands = 64;  // never fills
  Fleet fleet(4, options);
  fleet.submit(1, "lonely");
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  EXPECT_EQ(fleet.commits[2][0], to_bytes("lonely"));
  // The slot opened when the pacing timer fired, not before.
  EXPECT_GE(fleet.sim().now(), kBatchTimeout);
}

TEST(Smr, RetriedRequestExecutesExactlyOnce) {
  Fleet fleet(4);
  const std::uint64_t client = 4242;
  // The client submits to replica 1, then retries the same request at
  // replica 2 (e.g. after a timeout): the request must execute once.
  EXPECT_TRUE(fleet.replica(1).submit_request(client, 1, to_bytes("pay")));
  EXPECT_TRUE(fleet.replica(2).submit_request(client, 1, to_bytes("pay")));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  fleet.sim().run_until(fleet.sim().now() + 2'000'000);
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).executed_commands(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).last_executed_seq(client), 1U);
    EXPECT_EQ(fleet.commits[id].size(), 1U);
  }
}

TEST(Smr, DuplicateSubmitRejectedLocally) {
  Fleet fleet(4);
  EXPECT_TRUE(fleet.replica(1).submit_request(7, 3, to_bytes("x")));
  EXPECT_FALSE(fleet.replica(1).submit_request(7, 3, to_bytes("x")));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  // Post-execution retry is also a no-op.
  EXPECT_FALSE(fleet.replica(1).submit_request(7, 3, to_bytes("x")));
  EXPECT_FALSE(fleet.replica(1).submit_request(7, 2, to_bytes("old")));
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
    fleet.start();
    std::vector<Bytes> expected;
    for (std::uint64_t seq = 1; seq <= 12; ++seq) {
      expected.push_back(to_bytes("cmd-" + std::to_string(seq)));
      ASSERT_TRUE(fleet.replica(2).submit_request(77, seq, expected.back()));
    }
    EXPECT_TRUE(fleet.run_until_executed(12, /*deadline=*/30'000'000))
        << "seed " << seed << ": replica 1 executed "
        << fleet.replica(1).executed_commands() << " of 12";
    for (ReplicaId id = 1; id <= 4; ++id) {
      EXPECT_EQ(fleet.commits[id], expected)
          << "seed " << seed << " replica " << id;
    }
  }
}

TEST(Smr, NewSlotsStartInTheViewThatLastDecided) {
  // Once a view change passed a silent leader by, later slots start in
  // the group's view instead of each waiting out the view-1 timeout at
  // the dead leader. A replica that missed the view change follows the
  // view its peers announce in the new slots' envelopes.
  SmrOptions options;
  options.window = 2;
  options.batch_max_commands = 2;
  Fleet fleet(4, options, /*seed=*/1, /*f=*/1, /*l=*/1.5);  // q = 3 of 4
  const Duration base_timeout = 100'000;  // Fleet's sync.base_timeout
  ASSERT_TRUE(fleet.replica(2).submit_request(77, 1, to_bytes("warm")));
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(1));
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).view(), 1U);
  }

  const TimePoint silenced_at = fleet.sim().now();
  fleet.network().set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 1 || to == 1;
  });
  constexpr std::uint64_t kCommands = 12;  // 6 slots of 2
  for (std::uint64_t seq = 2; seq <= kCommands + 1; ++seq) {
    ASSERT_TRUE(fleet.replica(2).submit_request(
        77, seq, to_bytes("cmd-" + std::to_string(seq))));
  }
  while (fleet.sim().now() < silenced_at + 60'000'000) {
    bool all = true;
    for (ReplicaId id = 2; id <= 4; ++id) {
      all = all && fleet.replica(id).executed_commands() == kCommands + 1;
    }
    if (all || !fleet.sim().step()) break;
  }
  const Duration elapsed = fleet.sim().now() - silenced_at;
  for (ReplicaId id = 2; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).executed_commands(), kCommands + 1)
        << "replica " << id;
    EXPECT_EQ(fleet.replica(id).last_executed_seq(77), kCommands + 1);
    EXPECT_GE(fleet.replica(id).committed_slots(), 1U + 6U);
    EXPECT_GT(fleet.replica(id).view(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).log_digest(),
              fleet.replica(2).log_digest());
  }
  EXPECT_LT(elapsed, 3 * base_timeout) << "silence to last execution";

  // Replica 1 returns idle (no timer, so no wish of its own). Peers
  // announce their view with the Wish in a new slot's envelope, and f + 1
  // of them pull replica 1 into it well within one timeout.
  fleet.network().clear_filter();
  const TimePoint healed_at = fleet.sim().now();
  ASSERT_TRUE(fleet.replica(2).submit_request(77, kCommands + 2,
                                              to_bytes("after")));
  const View view = fleet.replica(2).view();
  EXPECT_TRUE(fleet.run_until(
      [&] { return fleet.replica(1).view() == view; },
      healed_at + base_timeout));
  ASSERT_TRUE(fleet.run_until_executed(kCommands + 2, healed_at + 60'000'000));
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).view(), view) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).log_digest(), fleet.replica(2).log_digest());
  }
}

TEST(Smr, IdleGroupIsQuietAfterAViewChange) {
  // The group's view timer runs only while an opened slot is unexecuted:
  // once a leader crash was passed by and every command executed, the
  // fleet schedules nothing more, no timer and no frame.
  SmrOptions options;
  options.batch_max_commands = 2;
  Fleet fleet(4, options, /*seed=*/1, /*f=*/1, /*l=*/1.5);  // q = 3 of 4
  const Duration base_timeout = 100'000;  // Fleet's sync.base_timeout
  fleet.start();
  fleet.kill(1);  // the view-1 leader
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    ASSERT_TRUE(fleet.replica(2).submit_request(
        77, seq, to_bytes("cmd-" + std::to_string(seq))));
  }
  ASSERT_TRUE(fleet.run_until_executed(6, 60'000'000));
  for (ReplicaId id = 2; id <= 4; ++id) {
    EXPECT_GT(fleet.replica(id).view(), 1U) << "replica " << id;
  }
  net::Simulator& sim = fleet.sim();
  // An event scheduled in the quiet period (a timer, or a frame's
  // delivery) raises fired + pending; one scheduled before it only moves
  // from pending to fired.
  const auto scheduled = [&sim] { return sim.events_fired() + sim.pending(); };
  const std::uint64_t sends = fleet.network().stats().sends;
  const std::uint64_t before = scheduled();
  sim.run_until(sim.now() + 10 * base_timeout);
  EXPECT_EQ(fleet.network().stats().sends, sends);
  EXPECT_EQ(scheduled(), before);
}

TEST(Smr, FollowerHeldRequestFailsOverInOneTimeout) {
  // A request submitted at a follower reaches every peer, and each one
  // times the requests it holds (PBFT's backup "waiting for a request"),
  // so the followers wish together after one view timeout. Before, only
  // the submitting replica timed it; its peers started their own timers
  // on its Wish, and the outage lasted two timeouts.
  SmrOptions options;
  Fleet fleet(4, options, /*seed=*/1, /*f=*/1, /*l=*/1.5);  // q = 3 of 4
  const Duration base_timeout = 100'000;  // Fleet's sync.base_timeout
  fleet.start();
  fleet.kill(1);  // the view-1 leader
  const TimePoint submitted = fleet.sim().now();
  ASSERT_TRUE(fleet.replica(2).submit_request(77, 1, to_bytes("after")));
  ASSERT_TRUE(fleet.run_until(
      [&] { return fleet.replica(2).executed_commands() == 1; },
      submitted + 60'000'000));
  EXPECT_LE(fleet.sim().now() - submitted,
            base_timeout + 2 * kBatchTimeout + 50'000);
  ASSERT_TRUE(fleet.run_until_executed(1, submitted + 60'000'000));
}

TEST(Smr, FollowerTimesAQueuedRequestWithNoSlotOpen) {
  // The followers hold the request but open no slot of their own (only
  // the leader opens slots from its queue); their view timers run anyway
  // and take them out of view 1 one timeout after the submission.
  SmrOptions options;
  Fleet fleet(4, options, /*seed=*/1, /*f=*/1, /*l=*/1.5);
  const Duration base_timeout = 100'000;  // Fleet's sync.base_timeout
  fleet.start();
  fleet.kill(1);
  const TimePoint submitted = fleet.sim().now();
  ASSERT_TRUE(fleet.replica(2).submit_request(77, 1, to_bytes("held")));
  fleet.sim().run_until(submitted + base_timeout - 10'000);
  for (ReplicaId id = 2; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).open_instances(), 0U) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).pending_commands(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).view(), 1U) << "replica " << id;
  }
  fleet.sim().run_until(submitted + base_timeout + 20'000);
  for (ReplicaId id = 2; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).view(), 2U) << "replica " << id;
  }
}

TEST(Smr, FollowerSubmissionsExecuteOnceInViewOne) {
  // A client at each follower: every request is relayed to all peers and
  // passed on to the leader, yet each executes exactly once, no view
  // changes, and once they executed the fleet goes quiet.
  SmrOptions options;
  options.batch_max_commands = 4;
  Fleet fleet(4, options, /*seed=*/1, /*f=*/1, /*l=*/1.5);
  const Duration base_timeout = 100'000;  // Fleet's sync.base_timeout
  fleet.start();
  std::multiset<std::string> submitted;
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    for (ReplicaId id = 2; id <= 4; ++id) {
      const std::string cmd =
          "c" + std::to_string(id) + "-" + std::to_string(seq);
      submitted.insert(cmd);
      ASSERT_TRUE(fleet.replica(id).submit_request(100 + id, seq,
                                                   to_bytes(cmd)));
    }
  }
  ASSERT_TRUE(fleet.run_until_executed(submitted.size(), 60'000'000));
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).view(), 1U) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).executed_commands(), submitted.size());
    EXPECT_EQ(fleet.replica(id).pending_commands(), 0U) << "replica " << id;
    std::multiset<std::string> executed;
    for (const Bytes& cmd : fleet.commits[id]) {
      executed.emplace(cmd.begin(), cmd.end());
    }
    EXPECT_EQ(executed, submitted) << "replica " << id;
    EXPECT_EQ(fleet.replica(id).log_digest(), fleet.replica(1).log_digest());
  }
  net::Simulator& sim = fleet.sim();
  // As in IdleGroupIsQuietAfterAViewChange: an event scheduled in the
  // quiet period raises fired + pending.
  const auto scheduled = [&sim] { return sim.events_fired() + sim.pending(); };
  fleet.sim().run_until(sim.now() + 1'000);  // deliveries already on the way
  const std::uint64_t sends = fleet.network().stats().sends;
  const std::uint64_t before = scheduled();
  sim.run_until(sim.now() + 10 * base_timeout);
  EXPECT_EQ(fleet.network().stats().sends, sends);
  EXPECT_EQ(scheduled(), before);
}

TEST(Smr, RelayThatSkipsTheLeaderExecutesInViewOne) {
  // A Byzantine replica 4 relays a request to the two correct followers
  // but not to the leader. Each follower passes it on to the leader once,
  // so it executes in view 1 instead of timing the followers out.
  Fleet fleet(4, SmrOptions{}, /*seed=*/1, /*f=*/1, /*l=*/1.5);
  fleet.start();
  Writer w;
  Request{/*client=*/9, /*seq=*/1, to_bytes("relayed")}.encode(w);
  const Bytes relay = std::move(w).take();
  fleet.replica(2).on_message(4, kSmrForwardTag, relay);
  fleet.replica(3).on_message(4, kSmrForwardTag, relay);
  ASSERT_TRUE(fleet.run_until(
      [&] {
        return fleet.replica(1).executed_commands() == 1 &&
               fleet.replica(2).executed_commands() == 1 &&
               fleet.replica(3).executed_commands() == 1;
      },
      60'000'000));
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).view(), 1U) << "replica " << id;
  }
  EXPECT_TRUE(fleet.committed(1, "relayed"));
}

TEST(Smr, CrossSlotReplayCannotSplitASlot) {
  // A Byzantine view-1 leader (replica 1) replays slot 0's signed Propose,
  // Prepares and Commits to replica 2 inside slot-1 envelopes, while it
  // proposes y for slot 1 to replicas 3 and 4. Each slot instance signs
  // under its own (group, slot) tag, so the replay verifies nowhere and
  // replica 2 cannot decide slot 0's batch in slot 1. The adversary also
  // holds back slot-1 traffic between replica 2 and the others until the
  // end, as partial synchrony allows.
  Fleet fleet(4, SmrOptions{}, /*seed=*/1, /*f=*/1, /*l=*/1.5);  // q = 3
  struct Frame {
    ReplicaId from;
    Bytes payload;
  };
  std::vector<Frame> slot0_at_2;  // slot 0 as replica 2 received it
  bool isolate = false;
  fleet.network().set_payload_filter(
      [&](ReplicaId from, ReplicaId to, std::uint8_t tag,
          const Bytes& payload) {
        if (tag != kSmrTag) return false;
        Reader r(payload);
        const std::uint64_t slot = r.u64();
        if (slot == 0 && to == 2 && from != 2) {
          slot0_at_2.push_back({from, payload});
        }
        return isolate && slot >= 1 && from != to && (from == 2 || to == 2);
      });
  fleet.start();
  ASSERT_TRUE(fleet.replica(1).submit_request(7, 1, to_bytes("x")));
  ASSERT_TRUE(fleet.run_until_executed(1));
  ASSERT_FALSE(slot0_at_2.empty());

  isolate = true;
  ASSERT_TRUE(fleet.replica(1).submit_request(8, 1, to_bytes("y")));
  for (const Frame& frame : slot0_at_2) {
    Writer w;
    w.u64(1);  // the same signed bytes, re-wrapped for slot 1
    w.raw(ByteSpan(frame.payload.data() + 8, frame.payload.size() - 8));
    fleet.replica(2).on_message(1, kSmrTag, std::move(w).take());
  }
  ASSERT_TRUE(fleet.run_until(
      [&] {
        return fleet.replica(1).executed_commands() == 2 &&
               fleet.replica(3).executed_commands() == 2 &&
               fleet.replica(4).executed_commands() == 2;
      },
      60'000'000));
  // Replica 2 decided nothing in slot 1 from the replay.
  EXPECT_EQ(fleet.replica(2).committed_slots(), 1U);

  isolate = false;
  ASSERT_TRUE(fleet.run_until_executed(2, fleet.sim().now() + 60'000'000));
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).log_digest(), fleet.replica(3).log_digest())
        << "replica " << id;
    EXPECT_TRUE(fleet.committed(id, "y"));
  }
}

TEST(Smr, FaultFreeFleetSendsNoHints) {
  // A signed hint answers only a sender stuck on a slot (its Wish or
  // NewLeader). The Commits that arrive past a replica's quorum, after it
  // executed the slot, draw none.
  SmrOptions options;
  options.batch_max_commands = 2;
  Fleet fleet(4, options, /*seed=*/1, /*f=*/1, /*l=*/1.5);  // q = 3 of 4
  for (int i = 0; i < 24; ++i) {
    fleet.submit(1 + i % 4, "op-" + std::to_string(i));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(24));
  fleet.sim().run_until(fleet.sim().now() + 1'000'000);
  EXPECT_EQ(fleet.network().stats().sends_for(kSmrHintTag), 0U);
}

TEST(Smr, RetirementBoundsLiveInstances) {
  // Regression for the unbounded instances_ map: a log much longer than
  // the window must not keep every decided core::Replica alive.
  SmrOptions options;
  options.window = 4;
  options.batch_max_commands = 1;
  Fleet fleet(4, options);
  for (int i = 0; i < 48; ++i) {
    fleet.submit(1, "op-" + std::to_string(i));
  }
  fleet.start();
  const std::size_t bound = options.window;
  while (fleet.sim().now() < 300'000'000) {
    bool all = true;
    for (ReplicaId id = 1; id <= 4; ++id) {
      EXPECT_LE(fleet.replica(id).open_instances(), bound)
          << "replica " << id << " at " << fleet.sim().now();
      if (fleet.replica(id).executed_commands() < 48) all = false;
    }
    if (all) break;
    if (!fleet.sim().step()) break;
  }
  for (ReplicaId id = 1; id <= 4; ++id) {
    ASSERT_EQ(fleet.replica(id).executed_commands(), 48U);
    EXPECT_EQ(fleet.replica(id).committed_slots(), 48U);
    EXPECT_LE(fleet.replica(id).open_instances(), bound);
  }
}

TEST(Smr, OrdersPastOneThousandTwentyFourSlots) {
  // No absolute slot cap: every slot bound follows the replica's own
  // execution point (the window, the catch-up horizon), so one client's
  // one-command slots keep ordering past slot 1,024.
  SmrOptions options;
  options.batch_max_commands = 1;
  Fleet fleet(4, options, /*seed=*/1, /*f=*/1, /*l=*/1.5);
  constexpr int kCommands = 1100;
  for (int i = 0; i < kCommands; ++i) {
    ASSERT_TRUE(fleet.submit(1, "op-" + std::to_string(i)));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(kCommands));
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.replica(id).executed_commands(), 1100U);
    EXPECT_EQ(fleet.replica(id).committed_slots(), 1100U);
  }
  EXPECT_TRUE(fleet.logs_identical());
}

TEST(Smr, StragglerCatchesUpViaHints) {
  // Replica 6 is partitioned while the first command decides (at n = 6
  // the q = ⌈2√6⌉ = 5 quorum is reachable without it); the others
  // execute and retire the slot. New traffic after the heal makes replica
  // 6 open the missed slot, and decided-value hints from its peers let it
  // catch up.
  SmrOptions options;
  options.window = 2;
  Fleet fleet(6, options);
  fleet.network().set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 6 || to == 6;
  });
  fleet.submit(1, "first");
  fleet.start();
  while (fleet.sim().now() < 100'000'000 &&
         (fleet.replica(1).executed_commands() < 1 ||
          fleet.replica(2).executed_commands() < 1 ||
          fleet.replica(5).executed_commands() < 1)) {
    if (!fleet.sim().step()) break;
  }
  ASSERT_EQ(fleet.replica(1).executed_commands(), 1U);
  ASSERT_EQ(fleet.replica(6).executed_commands(), 0U);

  fleet.network().clear_filter();
  fleet.submit(1, "second");
  ASSERT_TRUE(fleet.run_until_executed(2));
  EXPECT_EQ(fleet.commits[6], fleet.commits[1]);
}

TEST(Smr, StragglerCatchesUpFromBeyondTheWindow) {
  // Regression: a replica that misses MORE slots than the open window
  // (here 8 decided slots vs window 2) must still recover — traffic for
  // far-future slots cannot be opened or buffered, so recovery rides
  // entirely on the catch-up pull → hint protocol.
  SmrOptions options;
  options.window = 2;
  options.batch_max_commands = 1;
  Fleet fleet(6, options);
  fleet.network().set_filter([](ReplicaId from, ReplicaId to, std::uint8_t) {
    return from == 6 || to == 6;
  });
  for (int i = 0; i < 8; ++i) {
    fleet.submit(1, "op-" + std::to_string(i));
  }
  fleet.start();
  while (fleet.sim().now() < 150'000'000 &&
         fleet.replica(1).executed_commands() < 8) {
    if (!fleet.sim().step()) break;
  }
  ASSERT_EQ(fleet.replica(1).executed_commands(), 8U);
  ASSERT_EQ(fleet.replica(6).executed_commands(), 0U);

  fleet.network().clear_filter();
  fleet.submit(1, "after-heal");
  ASSERT_TRUE(fleet.run_until_executed(9));
  EXPECT_EQ(fleet.commits[6], fleet.commits[1]);
  EXPECT_EQ(fleet.replica(6).committed_slots(), 9U);
}

TEST(Smr, ForwardFloodIsBounded) {
  // Regression: a Byzantine peer spamming unique forwarded requests must
  // hit the intake cap, not grow the queue without bound.
  Fleet fleet(4);
  for (std::uint64_t i = 0; i < kMaxPendingRequests + 200; ++i) {
    Writer w;
    Request{/*client=*/100'000 + i, /*seq=*/1, to_bytes("flood")}.encode(w);
    fleet.replica(1).on_message(2, kSmrForwardTag, std::move(w).take());
  }
  EXPECT_EQ(fleet.replica(1).pending_commands(), kMaxPendingRequests);
  // Local submissions see the same backpressure.
  Fleet local(4);
  for (std::size_t i = 0; i < kMaxPendingRequests; ++i) {
    ASSERT_TRUE(local.submit(1, "fill-" + std::to_string(i)));
  }
  EXPECT_FALSE(local.submit(1, "one-too-many"));
  EXPECT_EQ(local.replica(1).pending_commands(), kMaxPendingRequests);
}

TEST(Smr, RejectsEmptyAndOversizedCommands) {
  Fleet fleet(4);
  EXPECT_FALSE(fleet.replica(1).submit_request(1, 1, Bytes{}));
  // A batch of one request: count (4) + client, seq, length (20) + payload.
  const std::size_t fits = kBatchMaxBytes - 4 - 20;
  EXPECT_FALSE(fleet.replica(1).submit_request(1, 1, Bytes(fits + 1, 0xaa)));
  EXPECT_TRUE(fleet.replica(1).submit_request(1, 1, Bytes(fits, 0xaa)));
}

TEST(Smr, RejectsBadConfig) {
  SmrConfig cfg;  // id = 0
  EXPECT_THROW(SmrReplica(cfg, {}), std::invalid_argument);
  Fleet fleet(1);  // n = 1 just to borrow key material
  SmrConfig zero_window;
  zero_window.id = 1;
  zero_window.n = 1;
  zero_window.suite = &fleet.suite();
  zero_window.secret_key = fleet.keys().pairs[1].secret_key;
  zero_window.public_keys = crypto::PublicKeyDir(
      std::vector<Bytes>{Bytes{}, fleet.keys().pairs[1].public_key});
  zero_window.pipeline.window = 0;
  EXPECT_THROW(SmrReplica(zero_window, {}), std::invalid_argument);
}

TEST(Smr, MalformedEnvelopesAreDropped) {
  Fleet fleet(4);
  fleet.start();
  fleet.replica(1).on_message(2, kSmrTag, Bytes{0x01});        // truncated
  fleet.replica(1).on_message(2, kSmrHintTag, Bytes{0x01});    // truncated
  fleet.replica(1).on_message(2, kSmrForwardTag, Bytes{0x01});  // truncated
  fleet.replica(1).on_message(2, kSmrPullTag, Bytes{0x01});    // truncated
  fleet.replica(1).on_message(2, 0x33, to_bytes("whatever"));  // wrong tag
  EXPECT_EQ(fleet.replica(1).committed_slots(), 0U);
  EXPECT_EQ(fleet.replica(1).next_unopened_slot(), 0U);
}

TEST(Smr, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    SmrOptions options;
    options.window = 4;
    options.batch_max_commands = 2;
    Fleet fleet(5, options, seed);
    fleet.submit(1, "p");
    fleet.submit(2, "q");
    fleet.submit(1, "r");
    fleet.start();
    fleet.run_until_executed(3);
    return fleet.commits[1];
  };
  EXPECT_EQ(run_once(42), run_once(42));
}

/// n bare SmrReplicas built through sim::NodeParams (make_smr_node), each
/// on its own CountingSuite, running one-command slots to completion.
struct CountedRun {
  static constexpr std::uint32_t kN = 4;
  static constexpr std::uint64_t kCommands = 64;

  net::Simulator sim;
  net::Network network;
  std::vector<std::unique_ptr<testutil::CountingSuite>> suites;
  std::vector<std::unique_ptr<SmrReplica>> nodes;
  std::vector<std::vector<Bytes>> commits;  // per node, executed payloads

  explicit CountedRun(bool fast_verify)
      : network(sim, kN, /*seed=*/3, latency()),
        suites(kN + 1),
        nodes(kN + 1),
        commits(kN + 1) {
    const auto keys = sim::derive_keys(*crypto::make_sim_suite(), kN, 3);
    for (ReplicaId id = 1; id <= kN; ++id) {
      suites[id] = std::make_unique<testutil::CountingSuite>(
          crypto::make_sim_suite(), keys.pairs[id].public_key);
      sim::NodeParams params;
      params.id = id;
      params.n = kN;
      params.smr.window = 4;
      params.smr.batch_max_commands = 1;
      params.fast_verify = fast_verify;
      params.suite = suites[id].get();
      params.secret_key = keys.pairs[id].secret_key;
      params.public_keys = keys.public_keys;
      params.on_execute = [this, id](const ExecutedCommand& cmd) {
        commits[id].push_back(cmd.payload);
      };
      nodes[id] = sim::make_smr_node(
          params, sim::transport_host(
                      network, id, [this](Duration d, std::function<void()> fn) {
                        sim.schedule_after(d, std::move(fn));
                      }));
      network.register_handler(
          id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
            nodes[id]->on_message(from, tag, m);
          });
    }
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      nodes[1]->submit_request(1, i + 1, to_bytes("op-" + std::to_string(i)));
    }
    for (ReplicaId id = 1; id <= kN; ++id) nodes[id]->start();
    const auto done = [this] {
      for (ReplicaId id = 1; id <= kN; ++id) {
        if (nodes[id]->executed_commands() < kCommands) return false;
      }
      return true;
    };
    while (!done() && sim.now() < 300'000'000 && sim.step()) {
    }
  }

  static net::LatencyConfig latency() {
    net::LatencyConfig cfg;
    cfg.min_delay = 500;
    cfg.max_delay_post = 4'000;
    return cfg;
  }

  /// One run per mode, shared by the tests below.
  static const CountedRun& get(bool fast_verify) {
    static const CountedRun fast(/*fast_verify=*/true);
    static const CountedRun slow(/*fast_verify=*/false);
    return fast_verify ? fast : slow;
  }
};

TEST(Smr, VrfSamplesProvedAndVerifiedOncePerView) {
  // Samples are per (view, phase), so every slot of one view shares them:
  // each replica proves its Prepare and Commit samples once, and verifies
  // each peer's two proofs once (its own are known-good from proving).
  const CountedRun& fast = CountedRun::get(/*fast_verify=*/true);
  const CountedRun& slow = CountedRun::get(/*fast_verify=*/false);
  constexpr std::uint32_t n = CountedRun::kN;
  for (ReplicaId id = 1; id <= n; ++id) {
    const SmrReplica& node = *fast.nodes[id];
    ASSERT_EQ(node.executed_commands(), CountedRun::kCommands);
    EXPECT_GE(node.committed_slots(), CountedRun::kCommands);
    const View views = node.view();  // views 1..v were entered
    EXPECT_EQ(views, 1U) << "replica " << id;
    EXPECT_LE(fast.suites[id]->vrf_proves, 2 * views) << "replica " << id;
    EXPECT_LE(fast.suites[id]->vrf_verifies, 2 * (n - 1) * views)
        << "replica " << id;
    // Without the fast path every slot proves and verifies again...
    EXPECT_GE(slow.suites[id]->vrf_proves, CountedRun::kCommands);
    // ...and executes the byte-identical log.
    const SmrReplica& naive = *slow.nodes[id];
    EXPECT_EQ(slow.commits[id], fast.commits[id]) << "replica " << id;
    EXPECT_EQ(naive.slot_log(), node.slot_log()) << "replica " << id;
    EXPECT_EQ(naive.log_digest(), node.log_digest()) << "replica " << id;
  }
}

TEST(Smr, OwnSignaturesNeverReverified) {
  // At n = 4 every sample is the whole fleet, so each replica's own
  // Prepare and Commit come back to it through the transport. Signing
  // vouches for them in the verdict cache, and phase messages past their
  // quorum are dropped before verification.
  const CountedRun& fast = CountedRun::get(/*fast_verify=*/true);
  const CountedRun& slow = CountedRun::get(/*fast_verify=*/false);
  for (ReplicaId id = 1; id <= CountedRun::kN; ++id) {
    const SmrReplica& node = *fast.nodes[id];
    ASSERT_EQ(node.executed_commands(), CountedRun::kCommands);
    const std::uint64_t slots = node.committed_slots();
    EXPECT_EQ(fast.suites[id]->own_key_verifies, 0U) << "replica " << id;
    // Per slot a follower checks the Propose, its leader tuple and the
    // n - 1 peers' Prepares and Commits (the leader skips the first two);
    // beyond that only peers' checkpoint votes, at most n - 1 per
    // checkpoint.
    const std::uint64_t ckpt_votes =
        (CountedRun::kN - 1) * (slots / SmrOptions{}.checkpoint_interval);
    EXPECT_LE(fast.suites[id]->verifies, 8 * slots + ckpt_votes)
        << "replica " << id;
    // The naive path re-verifies its own messages, so the counter does
    // see them. (Its byte-identical log is checked on these same runs
    // above.)
    EXPECT_GT(slow.suites[id]->own_key_verifies, 0U) << "replica " << id;
  }
}

}  // namespace
}  // namespace probft::smr
