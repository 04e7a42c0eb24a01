#include "net/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace probft::net {
namespace {

struct Delivery {
  ReplicaId from;
  ReplicaId to;
  std::uint8_t tag;
  Bytes payload;
  TimePoint at;
};

struct Harness {
  Simulator sim;
  Network net;
  std::vector<Delivery> deliveries;

  explicit Harness(std::uint32_t n, LatencyConfig cfg = {},
                   std::uint64_t seed = 42)
      : net(sim, n, seed, cfg) {
    for (ReplicaId id = 1; id <= n; ++id) {
      net.register_handler(
          id, [this, id](ReplicaId from, std::uint8_t tag, const Bytes& m) {
            deliveries.push_back({from, id, tag, m, sim.now()});
          });
    }
  }
};

TEST(Network, DeliversPointToPoint) {
  Harness h(3);
  h.net.send(1, 2, 7, {0xab});
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 1U);
  EXPECT_EQ(h.deliveries[0].from, 1U);
  EXPECT_EQ(h.deliveries[0].to, 2U);
  EXPECT_EQ(h.deliveries[0].tag, 7);
  EXPECT_EQ(h.deliveries[0].payload, Bytes{0xab});
}

TEST(Network, DelaysRespectPostGstBound) {
  LatencyConfig cfg;
  cfg.gst = 0;
  cfg.min_delay = 100;
  cfg.max_delay_post = 1000;
  Harness h(2, cfg);
  for (int i = 0; i < 200; ++i) h.net.send(1, 2, 0, {});
  h.sim.run();
  for (const auto& d : h.deliveries) {
    EXPECT_GE(d.at, 100U);
    EXPECT_LE(d.at, 1000U);
  }
}

TEST(Network, PreGstDelaysCanExceedDelta) {
  LatencyConfig cfg;
  cfg.gst = 1'000'000;
  cfg.min_delay = 100;
  cfg.max_delay_post = 1000;
  cfg.max_delay_pre = 500'000;
  Harness h(2, cfg);
  for (int i = 0; i < 200; ++i) h.net.send(1, 2, 0, {});
  h.sim.run();
  bool some_exceed_delta = false;
  for (const auto& d : h.deliveries) {
    if (d.at > 1000U) some_exceed_delta = true;
    EXPECT_LE(d.at, 500'000U);
  }
  EXPECT_TRUE(some_exceed_delta);
}

TEST(Network, HoldUntilGstDeliversAfterGst) {
  LatencyConfig cfg;
  cfg.gst = 1'000'000;
  cfg.min_delay = 100;
  cfg.max_delay_post = 1000;
  cfg.max_delay_pre = 5000;
  cfg.hold_until_gst_prob = 1.0;  // everything held
  Harness h(2, cfg);
  for (int i = 0; i < 50; ++i) h.net.send(1, 2, 0, {});
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 50U);  // never lost, only delayed
  for (const auto& d : h.deliveries) {
    EXPECT_GT(d.at, cfg.gst);
  }
}

TEST(Network, BroadcastReachesEveryoneElse) {
  Harness h(5);
  h.net.broadcast(3, 1, {0x01});
  h.sim.run();
  EXPECT_EQ(h.deliveries.size(), 4U);
  for (const auto& d : h.deliveries) {
    EXPECT_NE(d.to, 3U);
    EXPECT_EQ(d.from, 3U);
  }
}

TEST(Network, SelfSendWorks) {
  Harness h(2);
  h.net.send(1, 1, 0, {0x03});
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 1U);
  EXPECT_EQ(h.deliveries[0].to, 1U);
}

TEST(Network, StatsCountSendsByTag) {
  Harness h(4);
  h.net.send(1, 2, 5, {1, 2, 3});
  h.net.broadcast(1, 6, {9});
  h.sim.run();
  EXPECT_EQ(h.net.stats().sends, 4U);
  EXPECT_EQ(h.net.stats().delivered, 4U);
  EXPECT_EQ(h.net.stats().sends_for(5), 1U);
  EXPECT_EQ(h.net.stats().sends_for(6), 3U);
  EXPECT_EQ(h.net.stats().sends_for(77), 0U);
  EXPECT_EQ(h.net.stats().bytes_sent, 3U + 3U);
}

TEST(Network, StatsCountPerTagBytes) {
  Harness h(4);
  h.net.send(1, 2, 5, {1, 2, 3});
  h.net.broadcast(1, 6, {9});
  h.sim.run();
  EXPECT_EQ(h.net.stats().bytes_for(5), 3U);
  EXPECT_EQ(h.net.stats().bytes_for(6), 3U);
  EXPECT_EQ(h.net.stats().bytes_for(77), 0U);
}

TEST(Network, DuplicateDeliveriesCountTheirBytes) {
  // A duplicated message crosses the wire twice, so its bytes must land in
  // bytes_sent and the per-tag byte counters both times — while `sends`
  // keeps counting logical protocol sends. Pinned: bytes_sent must always
  // equal the sum over bytes_by_tag.
  LatencyConfig cfg;
  cfg.duplicate_prob = 1.0;
  Harness h(2, cfg);
  for (int i = 0; i < 10; ++i) h.net.send(1, 2, 4, {1, 2, 3, 4, 5});
  h.sim.run();
  const auto& stats = h.net.stats();
  EXPECT_EQ(stats.sends, 10U);
  EXPECT_EQ(stats.sends_for(4), 10U);
  EXPECT_EQ(stats.duplicates, 10U);
  EXPECT_EQ(stats.delivered, 20U);
  EXPECT_EQ(stats.bytes_sent, 2U * 10U * 5U);
  EXPECT_EQ(stats.bytes_for(4), 2U * 10U * 5U);

  std::uint64_t tag_total = 0;
  for (const auto& [tag, bytes] : stats.bytes_by_tag) tag_total += bytes;
  EXPECT_EQ(stats.bytes_sent, tag_total);
}

TEST(Network, DroppedMessagesDoNotDuplicate) {
  // The filter fires before the duplicate draw: a dropped message must not
  // add duplicate transmissions or their bytes.
  LatencyConfig cfg;
  cfg.duplicate_prob = 1.0;
  Harness h(2, cfg);
  h.net.set_filter(
      [](ReplicaId, ReplicaId, std::uint8_t) { return true; });
  h.net.send(1, 2, 4, {1, 2, 3});
  h.sim.run();
  EXPECT_EQ(h.net.stats().dropped, 1U);
  EXPECT_EQ(h.net.stats().duplicates, 0U);
  // The logical send is still accounted (it was attempted)...
  EXPECT_EQ(h.net.stats().sends, 1U);
  EXPECT_EQ(h.net.stats().bytes_sent, 3U);
  // ...but nothing was delivered.
  EXPECT_TRUE(h.deliveries.empty());
}

TEST(Network, FilterDropsMatchingMessages) {
  Harness h(3);
  h.net.set_filter([](ReplicaId from, ReplicaId, std::uint8_t) {
    return from == 1;  // partition replica 1's outbound links
  });
  h.net.send(1, 2, 0, {});
  h.net.send(2, 3, 0, {});
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 1U);
  EXPECT_EQ(h.deliveries[0].from, 2U);
  EXPECT_EQ(h.net.stats().dropped, 1U);
}

TEST(Network, ClearFilterRestoresDelivery) {
  Harness h(2);
  h.net.set_filter([](ReplicaId, ReplicaId, std::uint8_t) { return true; });
  h.net.send(1, 2, 0, {});
  h.net.clear_filter();
  h.net.send(1, 2, 0, {});
  h.sim.run();
  EXPECT_EQ(h.deliveries.size(), 1U);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    LatencyConfig cfg;
    cfg.max_delay_post = 10'000;
    Harness h(4, cfg, seed);
    for (int i = 0; i < 20; ++i) h.net.broadcast(1, 0, {});
    h.sim.run();
    std::vector<TimePoint> times;
    for (const auto& d : h.deliveries) times.push_back(d.at);
    return times;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(Network, RejectsBadRecipient) {
  Harness h(2);
  EXPECT_THROW(h.net.send(1, 0, 0, {}), std::out_of_range);
  EXPECT_THROW(h.net.send(1, 3, 0, {}), std::out_of_range);
}

}  // namespace
}  // namespace probft::net
