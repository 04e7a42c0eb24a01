// View synchronizer in the style of Bravo, Chockler & Gotsman [6]
// ("Making Byzantine Consensus Live"), as assumed by the paper (§2.3, §3.2).
//
// Each replica advertises the highest view it wishes to enter (a Wish).
// With per-replica latest-wish bookkeeping:
//   - the (f+1)-th highest wish is adopted and re-broadcast (amplification:
//     at least one correct replica wants it), and
//   - the (2f+1)-th highest wish is entered (a quorum of replicas is there).
// A per-view timer with exponential back-off generates local wishes, which
// after GST guarantees all correct replicas eventually overlap in a view
// with a correct leader for long enough to decide.
//
// The synchronizer is transport-agnostic: the owner wires `broadcast_wish`
// to the network and feeds incoming wishes back via on_wish().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace probft::sync {

struct SyncConfig {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  Duration base_timeout = 100'000;   // first view timeout (us)
  double backoff = 1.5;              // multiplicative per-view growth
  Duration max_timeout = 30'000'000; // cap
};

class Synchronizer {
 public:
  using WishBroadcaster = std::function<void(View)>;
  using ViewCallback = std::function<void(View)>;
  /// Schedules a callback after a delay (wired to the simulator).
  using TimerSetter = std::function<void(Duration, std::function<void()>)>;

  Synchronizer(ReplicaId self, SyncConfig config, WishBroadcaster wish,
               ViewCallback enter_view, TimerSetter set_timer);

  /// Enters view `first` (>= 1) and arms its timer. For first > 1 the
  /// replica records and broadcasts its own Wish(first) before entering:
  /// the owner already knows the earlier views are over (SMR starts a
  /// new slot in the view that last decided), and the wish tells the
  /// peers.
  void start(View first = 1);

  /// Feeds a Wish received from `from` (Byzantine senders included).
  void on_wish(ReplicaId from, View v);

  /// Local request to leave the current view (timeout already does this;
  /// protocols call it when they block a view on leader equivocation).
  void advance();

  /// Freezes the synchronizer once the replica decided.
  void stop();

  [[nodiscard]] View view() const { return current_; }
  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] Duration timeout_for(View v) const;

 private:
  void wish_for(View v);
  void maybe_progress();
  void enter(View v);
  void arm_timer();
  /// k-th highest wish across replicas (k is 1-based).
  [[nodiscard]] View kth_highest_wish(std::uint32_t k) const;

  ReplicaId self_;
  SyncConfig cfg_;
  WishBroadcaster broadcast_wish_;
  ViewCallback enter_view_;
  TimerSetter set_timer_;

  View current_ = 0;
  View own_wish_ = 0;
  std::uint64_t generation_ = 0;  // invalidates stale timers
  bool stopped_ = false;
  std::vector<View> latest_wish_;  // per replica, index 0 unused
};

}  // namespace probft::sync
