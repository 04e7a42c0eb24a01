#include "net/network.hpp"

#include <stdexcept>

namespace probft::net {

Network::Network(Simulator& sim, std::uint32_t n, std::uint64_t seed,
                 LatencyConfig config)
    : sim_(sim),
      n_(n),
      config_(config),
      rng_(mix64(seed, 0x6e65742d726e67ULL)),
      handlers_(n + 1) {
  if (n == 0) throw std::invalid_argument("Network: n must be > 0");
  if (config_.min_delay == 0) config_.min_delay = 1;
}

void Network::register_handler(ReplicaId id, Handler handler) {
  if (id == 0 || id > n_) throw std::out_of_range("register_handler: bad id");
  handlers_[id] = std::move(handler);
}

Duration Network::draw_delay() {
  const TimePoint now = sim_.now();
  // The reordering adversary stretches an unlucky subset of messages; the
  // draw happens for every message so delivery order on a link is
  // adversarially scrambled in both synchrony regimes.
  Duration reorder_extra = 0;
  if (config_.reorder_prob > 0.0 && config_.reorder_delay_max > 0 &&
      rng_.uniform01() < config_.reorder_prob) {
    reorder_extra = rng_.bounded(config_.reorder_delay_max + 1);
  }
  if (now >= config_.gst) {
    // Synchronous period: delay within (min, Δ].
    const Duration spread = config_.max_delay_post > config_.min_delay
                                ? config_.max_delay_post - config_.min_delay
                                : 0;
    return reorder_extra + config_.min_delay +
           (spread > 0 ? rng_.bounded(spread + 1) : 0);
  }
  // Asynchronous period: the scheduler may hold the message until just
  // after GST, or deliver it with an arbitrary (bounded) delay.
  if (config_.hold_until_gst_prob > 0.0 &&
      rng_.uniform01() < config_.hold_until_gst_prob) {
    const Duration to_gst = config_.gst - now;
    const Duration spread = config_.max_delay_post - config_.min_delay;
    return reorder_extra + to_gst + config_.min_delay +
           (spread > 0 ? rng_.bounded(spread + 1) : 0);
  }
  const Duration spread = config_.max_delay_pre > config_.min_delay
                              ? config_.max_delay_pre - config_.min_delay
                              : 0;
  return reorder_extra + config_.min_delay +
         (spread > 0 ? rng_.bounded(spread + 1) : 0);
}

void Network::send(ReplicaId from, ReplicaId to, std::uint8_t tag,
                   Bytes payload) {
  send_shared(from, to, tag,
              std::make_shared<const Bytes>(std::move(payload)));
}

void Network::send_shared(ReplicaId from, ReplicaId to, std::uint8_t tag,
                          SharedPayload payload) {
  if (to == 0 || to > n_) throw std::out_of_range("send: bad recipient");
  ++stats_.sends;
  ++stats_.sends_by_tag[tag];
  stats_.bytes_sent += payload->size();
  stats_.bytes_by_tag[tag] += payload->size();

  if (filter_ && filter_(from, to, tag)) {
    ++stats_.dropped;
    return;
  }
  if (payload_filter_ && payload_filter_(from, to, tag, *payload)) {
    ++stats_.dropped;
    return;
  }

  const bool duplicate = config_.duplicate_prob > 0.0 &&
                         rng_.uniform01() < config_.duplicate_prob;
  if (duplicate) {
    // A duplicated delivery crosses the wire twice: its bytes count in the
    // transmission totals (bytes_sent stays the sum over bytes_by_tag),
    // while `sends` keeps counting logical protocol sends only.
    ++stats_.duplicates;
    stats_.bytes_sent += payload->size();
    stats_.bytes_by_tag[tag] += payload->size();
  }
  const Duration delay = (to == from) ? config_.min_delay : draw_delay();
  const Duration dup_delay = duplicate ? draw_delay() : 0;
  auto deliver = [this, from, to, tag, payload = std::move(payload)]() {
    if (handlers_[to]) {
      ++stats_.delivered;
      handlers_[to](from, tag, *payload);
    }
  };
  if (duplicate) {
    sim_.schedule_after(dup_delay, deliver);  // copy of the closure
  }
  sim_.schedule_after(delay, std::move(deliver));
}

void Network::broadcast(ReplicaId from, std::uint8_t tag,
                        const Bytes& payload) {
  const auto shared = std::make_shared<const Bytes>(payload);
  for (ReplicaId to = 1; to <= n_; ++to) {
    if (to != from) send_shared(from, to, tag, shared);
  }
}

}  // namespace probft::net
