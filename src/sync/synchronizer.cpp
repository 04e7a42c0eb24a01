#include "sync/synchronizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace probft::sync {

Synchronizer::Synchronizer(ReplicaId self, SyncConfig config,
                           WishBroadcaster wish, ViewCallback enter_view,
                           TimerSetter set_timer)
    : self_(self),
      cfg_(config),
      broadcast_wish_(std::move(wish)),
      enter_view_(std::move(enter_view)),
      set_timer_(std::move(set_timer)),
      latest_wish_(config.n + 1, 0) {
  if (cfg_.n == 0 || self_ == 0 || self_ > cfg_.n) {
    throw std::invalid_argument("Synchronizer: bad configuration");
  }
}

void Synchronizer::start(View first) {
  if (first > 1) {
    own_wish_ = first;
    latest_wish_[self_] = first;
    broadcast_wish_(first);
  }
  enter(first);
}

Duration Synchronizer::timeout_for(View v) const {
  double timeout = static_cast<double>(cfg_.base_timeout) *
                   std::pow(cfg_.backoff, static_cast<double>(v - 1));
  timeout = std::min(timeout, static_cast<double>(cfg_.max_timeout));
  return static_cast<Duration>(timeout);
}

void Synchronizer::on_wish(ReplicaId from, View v) {
  if (stopped_ || from == 0 || from > cfg_.n) return;
  if (v <= latest_wish_[from]) return;
  latest_wish_[from] = v;
  maybe_progress();
}

void Synchronizer::advance() {
  if (stopped_) return;
  if (own_wish_ <= current_) wish_for(current_ + 1);
}

void Synchronizer::stop() { stopped_ = true; }

void Synchronizer::wish_for(View v) {
  own_wish_ = v;
  latest_wish_[self_] = std::max(latest_wish_[self_], v);
  broadcast_wish_(v);
  maybe_progress();
}

View Synchronizer::kth_highest_wish(std::uint32_t k) const {
  std::vector<View> wishes(latest_wish_.begin() + 1, latest_wish_.end());
  std::sort(wishes.begin(), wishes.end(), std::greater<>());
  return k <= wishes.size() ? wishes[k - 1] : 0;
}

void Synchronizer::maybe_progress() {
  if (stopped_) return;
  // Amplification: the (f+1)-th highest wish is backed by at least one
  // correct replica; adopt it.
  const View amplify = kth_highest_wish(cfg_.f + 1);
  if (amplify > own_wish_) {
    wish_for(amplify);
    return;  // wish_for re-enters maybe_progress
  }
  // Entry: the (2f+1)-th highest wish has quorum support.
  const View enter_view = kth_highest_wish(2 * cfg_.f + 1);
  if (enter_view > current_) enter(enter_view);
}

void Synchronizer::enter(View v) {
  current_ = v;
  ++generation_;
  enter_view_(v);
  if (!stopped_) arm_timer();
}

void Synchronizer::arm_timer() {
  const std::uint64_t generation = generation_;
  set_timer_(timeout_for(current_), [this, generation] {
    if (stopped_ || generation != generation_) return;
    advance();
  });
}

}  // namespace probft::sync
