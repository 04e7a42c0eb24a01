// Simulated point-to-point message network with partial synchrony.
//
// Model (paper §2.1): the system is partially synchronous — before an
// unknown global stabilization time (GST) the adversarial scheduler may
// delay messages arbitrarily (but finitely); after GST every message is
// delivered within an unknown bound Δ. The scheduler here draws delays
// uniformly at random, independent of the sender's identity and of whether
// it is Byzantine — exactly the sender-oblivious adversary the paper
// assumes. Optionally, a pre-GST loss probability models messages the
// scheduler holds forever-before-GST (they are re-delivered after GST,
// never silently lost, preserving eventual delivery).
//
// Fault injection: a user-supplied filter can drop/partition links, used by
// tests to create network partitions and targeted outages.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/simulator.hpp"
#include "net/transport.hpp"

namespace probft::net {

struct LatencyConfig {
  TimePoint gst = 0;                 // global stabilization time
  Duration min_delay = 1'000;        // 1 ms floor
  Duration max_delay_post = 10'000;  // Δ: post-GST delivery bound
  Duration max_delay_pre = 500'000;  // worst pre-GST adversarial delay
  double hold_until_gst_prob = 0.0;  // chance a pre-GST send is held to GST+
  double duplicate_prob = 0.0;       // chance a message is delivered twice
                                     // (with an independent second delay)
  // Per-link reordering adversary: with probability `reorder_prob` a
  // message picks up an extra delay in [0, reorder_delay_max], so later
  // sends on the same link routinely overtake it. The extra delay is
  // bounded, so the system stays partially synchronous with an effective
  // Δ' = max_delay_post + reorder_delay_max.
  double reorder_prob = 0.0;
  Duration reorder_delay_max = 0;
};

class Network final : public ITransport {
 public:
  using Handler = ITransport::Handler;
  /// Returns true to drop the message (fault injection).
  using Filter =
      std::function<bool(ReplicaId from, ReplicaId to, std::uint8_t tag)>;
  /// Payload-aware variant for faults that target a slice of one tag's
  /// traffic — e.g. dropping only the kSmrTag frames of one slot. Checked
  /// after `Filter`; either one returning true drops the message.
  using PayloadFilter = std::function<bool(
      ReplicaId from, ReplicaId to, std::uint8_t tag, const Bytes& payload)>;

  /// Historical alias — the shared stats type now lives at the transport
  /// boundary so every backend reports the same shape.
  using Stats = TransportStats;

  Network(Simulator& sim, std::uint32_t n, std::uint64_t seed,
          LatencyConfig config);

  /// Registers the receive callback for replica `id` (1-based).
  void register_handler(ReplicaId id, Handler handler) override;

  /// Sends one point-to-point message; self-sends are allowed and get the
  /// minimum delay.
  void send(ReplicaId from, ReplicaId to, std::uint8_t tag,
            Bytes payload) override;

  /// Sends to every replica except the sender itself.
  void broadcast(ReplicaId from, std::uint8_t tag,
                 const Bytes& payload) override;

  [[nodiscard]] const Stats& stats() const override { return stats_; }

  void set_filter(Filter filter) { filter_ = std::move(filter); }
  void clear_filter() { filter_ = nullptr; }
  void set_payload_filter(PayloadFilter filter) {
    payload_filter_ = std::move(filter);
  }

  [[nodiscard]] const LatencyConfig& config() const { return config_; }

 private:
  /// A broadcast shares one immutable heap buffer across the whole
  /// fan-out instead of copying the payload per recipient — at n = 2000 a
  /// broadcast used to clone the payload 1999 times.
  using SharedPayload = std::shared_ptr<const Bytes>;
  void send_shared(ReplicaId from, ReplicaId to, std::uint8_t tag,
                   SharedPayload payload);

  [[nodiscard]] Duration draw_delay();

  Simulator& sim_;
  std::uint32_t n_;
  LatencyConfig config_;
  Xoshiro256StarStar rng_;
  std::vector<Handler> handlers_;  // index 0 unused
  Filter filter_;
  PayloadFilter payload_filter_;
  Stats stats_;
};

}  // namespace probft::net
