// Synchronizer unit tests driving a small fleet of synchronizers over the
// simulated network-less harness (wishes relayed directly).
#include "sync/synchronizer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/simulator.hpp"

namespace probft::sync {
namespace {

/// N synchronizers wired to each other through the simulator with a fixed
/// wish-propagation delay.
struct Fleet {
  net::Simulator sim;
  std::vector<std::unique_ptr<Synchronizer>> nodes;  // 1-based
  std::vector<View> entered;                         // last view entered
  std::vector<std::vector<View>> history;
  std::vector<std::vector<View>> wishes;             // broadcast, in order
  Duration wish_delay = 1'000;
  std::vector<bool> silent;

  Fleet(std::uint32_t n, std::uint32_t f, SyncConfig base = {}) {
    base.n = n;
    base.f = f;
    if (base.base_timeout == 100'000 && base.backoff == 1.5) {
      base.base_timeout = 50'000;
    }
    entered.assign(n + 1, 0);
    history.resize(n + 1);
    wishes.resize(n + 1);
    silent.assign(n + 1, false);
    nodes.resize(n + 1);
    for (ReplicaId id = 1; id <= n; ++id) {
      nodes[id] = std::make_unique<Synchronizer>(
          id, base,
          /*wish=*/
          [this, id, n](View v) {
            wishes[id].push_back(v);
            if (silent[id]) return;
            for (ReplicaId to = 1; to <= n; ++to) {
              if (to == id) continue;
              sim.schedule_after(wish_delay, [this, to, id, v] {
                nodes[to]->on_wish(id, v);
              });
            }
          },
          /*enter=*/
          [this, id](View v) {
            entered[id] = v;
            history[id].push_back(v);
          },
          /*timer=*/
          [this](Duration d, std::function<void()> fn) {
            sim.schedule_after(d, std::move(fn));
          });
    }
  }

  void start_all() {
    for (std::size_t id = 1; id < nodes.size(); ++id) nodes[id]->start();
  }
};

TEST(Synchronizer, StartEntersViewOne) {
  Fleet fleet(4, 1);
  fleet.start_all();
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.entered[id], 1U);
    EXPECT_EQ(fleet.nodes[id]->view(), 1U);
  }
}

TEST(Synchronizer, TimeoutAdvancesAllToViewTwo) {
  Fleet fleet(4, 1);
  fleet.start_all();
  fleet.sim.run_until(1'000'000);
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_GE(fleet.entered[id], 2U) << "replica " << id;
  }
}

TEST(Synchronizer, ViewsAreMonotonic) {
  Fleet fleet(4, 1);
  fleet.start_all();
  fleet.sim.run_until(3'000'000);
  for (ReplicaId id = 1; id <= 4; ++id) {
    for (std::size_t i = 1; i < fleet.history[id].size(); ++i) {
      EXPECT_GT(fleet.history[id][i], fleet.history[id][i - 1]);
    }
  }
}

TEST(Synchronizer, StoppedNodeDoesNotAdvance) {
  Fleet fleet(4, 1);
  fleet.start_all();
  fleet.nodes[1]->stop();
  fleet.sim.run_until(2'000'000);
  EXPECT_EQ(fleet.entered[1], 1U);
  EXPECT_TRUE(fleet.nodes[1]->stopped());
}

TEST(Synchronizer, AdvanceTriggersWishAndEventualEntry) {
  Fleet fleet(4, 1);
  fleet.start_all();
  // All four ask to advance immediately (e.g. blocked views).
  for (ReplicaId id = 1; id <= 4; ++id) fleet.nodes[id]->advance();
  fleet.sim.run_until(40'000);  // before the view-2 timeout fires
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.entered[id], 2U) << "replica " << id;
  }
}

TEST(Synchronizer, FPlusOneWishesAreAmplified) {
  // Only f+1 = 2 nodes ask to advance; amplification must pull the other
  // two along without waiting for their timeouts.
  Fleet fleet(4, 1);
  fleet.start_all();
  fleet.nodes[1]->advance();
  fleet.nodes[2]->advance();
  fleet.sim.run_until(49'000);  // strictly before the first timeout
  for (ReplicaId id = 1; id <= 4; ++id) {
    EXPECT_EQ(fleet.entered[id], 2U) << "replica " << id;
  }
}

TEST(Synchronizer, StartPastViewOneWishesAndEntersDirectly) {
  // SMR starts a new slot in the view its last slot decided in: start(v)
  // enters v at once and broadcasts Wish(v), which is how peers still in
  // view 1 learn to follow.
  Fleet fleet(4, 1);
  fleet.nodes[1]->start(3);
  EXPECT_EQ(fleet.entered[1], 3U);
  EXPECT_EQ(fleet.history[1], std::vector<View>{3});
  EXPECT_EQ(fleet.wishes[1], std::vector<View>{3});
  fleet.nodes[2]->start(3);
  fleet.nodes[3]->start();
  fleet.nodes[4]->start();
  // f + 1 = 2 wishes for view 3 reach the view-1 peers: they amplify
  // (2f + 1 wishes) and enter view 3 well before any timeout.
  fleet.sim.run_until(10'000);
  for (ReplicaId id = 3; id <= 4; ++id) {
    EXPECT_EQ(fleet.history[id], (std::vector<View>{1, 3})) << "replica " << id;
    EXPECT_EQ(fleet.wishes[id], std::vector<View>{3}) << "replica " << id;
  }
  EXPECT_EQ(fleet.history[1], std::vector<View>{3});
}

TEST(Synchronizer, FWishesAreNotEnough) {
  // Only f = 1 node wishes: nobody may enter view 2 before timeouts.
  Fleet fleet(4, 1);
  fleet.start_all();
  fleet.nodes[1]->advance();
  fleet.sim.run_until(40'000);  // before the 50ms base timeout
  EXPECT_EQ(fleet.entered[2], 1U);
  EXPECT_EQ(fleet.entered[3], 1U);
  EXPECT_EQ(fleet.entered[4], 1U);
}

TEST(Synchronizer, ByzantineWishesAloneCannotForceViewChange) {
  // A single Byzantine replica (f=1) wishes an enormous view; correct
  // replicas must not jump: one wish is below the f+1 amplification bar.
  Fleet fleet(4, 1);
  fleet.start_all();
  for (ReplicaId id = 2; id <= 4; ++id) {
    fleet.nodes[id]->on_wish(1, 1'000'000);
  }
  fleet.sim.run_until(40'000);
  for (ReplicaId id = 2; id <= 4; ++id) {
    EXPECT_EQ(fleet.entered[id], 1U) << "replica " << id;
  }
}

TEST(Synchronizer, SilentMinorityDoesNotBlockProgress) {
  // One silent (crashed) node out of 4 with f=1: the rest still advance
  // past view 2 via timeouts (2f+1 = 3 wishes reachable).
  Fleet fleet(4, 1);
  fleet.silent[4] = true;
  fleet.start_all();
  fleet.sim.run_until(2'000'000);
  for (ReplicaId id = 1; id <= 3; ++id) {
    EXPECT_GE(fleet.entered[id], 2U) << "replica " << id;
  }
}

TEST(Synchronizer, TimeoutsGrowExponentially) {
  SyncConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.base_timeout = 1000;
  cfg.backoff = 2.0;
  cfg.max_timeout = 100'000;
  Fleet fleet(4, 1, cfg);
  EXPECT_EQ(fleet.nodes[1]->timeout_for(1), 1000U);
  EXPECT_EQ(fleet.nodes[1]->timeout_for(2), 2000U);
  EXPECT_EQ(fleet.nodes[1]->timeout_for(5), 16000U);
  EXPECT_EQ(fleet.nodes[1]->timeout_for(50), 100'000U);  // capped
}

TEST(Synchronizer, WishesFromUnknownRepilcasIgnored) {
  Fleet fleet(4, 1);
  fleet.start_all();
  fleet.nodes[1]->on_wish(0, 5);
  fleet.nodes[1]->on_wish(99, 5);
  fleet.sim.run_until(10'000);
  EXPECT_EQ(fleet.entered[1], 1U);
}

TEST(Synchronizer, RejectsBadConfig) {
  SyncConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(Synchronizer(1, cfg, nullptr, nullptr, nullptr),
               std::invalid_argument);
}

TEST(Synchronizer, ConvergesDespiteScatteredWishes) {
  // Nodes wish different views; everyone must converge to a common one.
  Fleet fleet(7, 2);
  fleet.start_all();
  fleet.nodes[1]->on_wish(2, 3);
  fleet.nodes[1]->on_wish(3, 4);
  fleet.nodes[1]->on_wish(4, 5);  // f+1 = 3 distinct wishes >= 3
  fleet.sim.run_until(2'000'000);
  // All correct nodes end in the same view eventually.
  for (ReplicaId id = 2; id <= 7; ++id) {
    EXPECT_EQ(fleet.nodes[id]->view(), fleet.nodes[1]->view())
        << "replica " << id;
  }
}

}  // namespace
}  // namespace probft::sync
