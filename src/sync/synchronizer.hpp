// View synchronizer in the style of Bravo, Chockler & Gotsman [6]
// ("Making Byzantine Consensus Live"), as assumed by the paper (§2.3, §3.2).
//
// Each replica advertises the highest view it wishes to enter (a Wish).
// With per-replica latest-wish bookkeeping:
//   - the (f+1)-th highest wish is adopted and re-broadcast (amplification:
//     at least one correct replica wants it), and
//   - the (2f+1)-th highest wish is entered (a quorum of replicas is there).
// A per-view timer with exponential back-off generates local wishes, and
// repeats them until a view is entered (a partition may drop a wish), which
// after GST guarantees all correct replicas eventually overlap in a view
// with a correct leader for long enough to decide. An owner with nothing
// to decide may stop the timer (restart_timer): it then wishes nothing of
// its own but still tallies and follows its peers' wishes.
//
// The synchronizer is transport-agnostic: the owner wires `broadcast_wish`
// to the network and feeds incoming wishes back via on_wish().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace probft::sync {

/// View v's timeout is base_timeout · kViewTimeoutBackoff^(v-1), capped
/// at kMaxViewTimeout (µs).
inline constexpr double kViewTimeoutBackoff = 1.5;
inline constexpr Duration kMaxViewTimeout = 30'000'000;

struct SyncConfig {
  Duration base_timeout = 100'000;  // first view timeout (us)
};

class Synchronizer {
 public:
  using WishBroadcaster = std::function<void(View)>;
  using ViewCallback = std::function<void(View)>;
  /// Schedules a callback after a delay (wired to the simulator).
  using TimerSetter = std::function<void(Duration, std::function<void()>)>;

  /// `self` is one of replicas 1..n, of which at most f are faulty.
  Synchronizer(ReplicaId self, std::uint32_t n, std::uint32_t f,
               SyncConfig config, WishBroadcaster wish,
               ViewCallback enter_view, TimerSetter set_timer);

  /// Enters view 1 and arms its timer (unless the timer is stopped).
  void start();

  /// Feeds a Wish received from `from` (Byzantine senders included).
  void on_wish(ReplicaId from, View v);

  /// Local request to leave the current view; the view timer calls it at
  /// every timeout until a view is entered. Wishes for the next view, or
  /// repeats the wish already made past the current one (a partition may
  /// have dropped it).
  void advance();

  /// Restarts the view timer for a full timeout of the current view, or
  /// (run = false) stops it until the next restart, across view entries.
  /// An SMR group runs it only while some opened slot is unexecuted.
  void restart_timer(bool run);

  [[nodiscard]] View view() const { return current_; }
  [[nodiscard]] Duration timeout_for(View v) const;
  /// Whether the view timer runs (not stopped by restart_timer(false)).
  [[nodiscard]] bool timer_running() const { return timer_on_; }
  /// The highest view replica `id` is known to have wished for; 0: none.
  [[nodiscard]] View latest_wish(ReplicaId id) const {
    return id < latest_wish_.size() ? latest_wish_[id] : 0;
  }

 private:
  void wish_for(View v);
  void maybe_progress();
  void enter(View v);
  void arm_timer();
  /// k-th highest wish across replicas (k is 1-based).
  [[nodiscard]] View kth_highest_wish(std::uint32_t k) const;

  ReplicaId self_;
  std::uint32_t f_;
  SyncConfig cfg_;
  WishBroadcaster broadcast_wish_;
  ViewCallback enter_view_;
  TimerSetter set_timer_;

  View current_ = 0;
  View own_wish_ = 0;
  std::uint64_t generation_ = 0;  // invalidates stale timers
  bool timer_on_ = true;
  std::vector<View> latest_wish_;  // per replica, index 0 unused
};

}  // namespace probft::sync
