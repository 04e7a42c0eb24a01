#include "smr/smr_replica.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/codec.hpp"

namespace probft::smr {

namespace {

/// Encoded size one request adds to a batch (client + seq + length prefix
/// + payload); the batch itself starts at 4 bytes (count prefix).
[[nodiscard]] std::size_t request_wire_size(const Request& req) {
  return 8 + 8 + 4 + req.payload.size();
}

/// Per-slot cap on buffered messages for not-yet-opened slots.
constexpr std::size_t kMaxBufferedPerSlot = 4096;

}  // namespace

SmrReplica::SmrReplica(SmrConfig config, core::ProtocolHost host)
    : cfg_(std::move(config)),
      host_(std::move(host)),
      reads_(cfg_, host_,
             [this] { catchup_.pull_while_behind(next_open_); }),
      catchup_(
          cfg_, host_,
          [this](std::uint64_t slot, const Bytes& value) {
            on_slot_decided(slot, value, /*view=*/0);
          },
          [this](const CheckpointState& state) { on_prefix_jump(state); }),
      sync_(
          cfg_.id, cfg_.n, cfg_.f, cfg_.sync,
          [this](View view) { broadcast_wish(view); },
          [this](View view) { enter_view(view); }, host_.set_timer) {
  if (cfg_.id == 0 || cfg_.id > cfg_.n || cfg_.suite == nullptr ||
      cfg_.public_keys.size() != cfg_.n + 1 || cfg_.pipeline.window == 0 ||
      cfg_.pipeline.batch_max_commands == 0) {
    throw std::invalid_argument("SmrReplica: bad configuration");
  }
  limits_.max_commands = cfg_.pipeline.batch_max_commands;
  Writer tag;
  tag.u64(kGroupId);
  group_tag_ = std::move(tag).take();
  peer_wishes_.resize(cfg_.n + 1);
  sample_memo_.emplace(*cfg_.suite, cfg_.secret_key,
                       cfg_.public_keys[cfg_.id]);
  catchup_.recover([this](std::uint64_t slot, Bytes value) {
    decided_out_of_order_.emplace(slot, std::move(value));
    execute_ready_slots();
  });
  next_open_ = std::max(next_open_, exec_slots());
  if (recovered_slots() > 0) reads_.on_replay();
  // Idle until a slot opens: view 1, no timer.
  sync_.restart_timer(false);
  sync_.start();
}

void SmrReplica::start() {
  started_ = true;
  catchup_.start();
  maybe_open_slots(/*pace_expired=*/false);
  reads_.start();
}

bool SmrReplica::submit_request(std::uint64_t client, std::uint64_t seq,
                                Bytes payload) {
  Request req{client, seq, std::move(payload)};
  std::optional<Request> relay;
  if (leader() != cfg_.id) relay = req;
  if (!enqueue(std::move(req))) return false;
  // Every peer queues it too and so times it: a dead leader then costs one
  // view timeout, not two.
  if (relay) send_forward(0, *relay);
  return true;
}

void SmrReplica::on_forward(ReplicaId from, Request request) {
  // Any replica may forward; dedup makes replays harmless.
  std::optional<Request> pass;
  if (leader() != cfg_.id) pass = request;
  if (enqueue(std::move(request), from) && pass) forward_to_leader(*pass);
}

void SmrReplica::send_forward(ReplicaId to, const Request& request) {
  if (to == cfg_.id) return;
  Writer w;
  request.encode(w);
  if (to == 0) {
    host_.broadcast(kSmrForwardTag, std::move(w).take());
  } else {
    host_.send(to, kSmrForwardTag, std::move(w).take());
  }
}

void SmrReplica::enter_view(View view) {
  // A decide on the way may execute and retire slots: look each one up.
  for (std::uint64_t slot = exec_slots(); slot < next_open_; ++slot) {
    const auto it = instances_.find(slot);
    if (it != instances_.end()) it->second->move_to(view);
  }
  if (leader() == cfg_.id) {
    maybe_open_slots(/*pace_expired=*/true);  // the queue waited a timeout
    return;
  }
  // The queue was forwarded to the old leader (or is this replica's own
  // from when it led): hand it to the new one, in order, but for what the
  // new leader relayed here itself.
  const auto hand_over = [this](const Request& req) {
    if (pending_keys_.at({req.client, req.seq}) != leader()) {
      forward_to_leader(req);
    }
  };
  for (const Request& req : queue_) hand_over(req);
  for (const auto& [key, held] : held_) hand_over(held.request);
}

void SmrReplica::broadcast_wish(View view) {
  if (wish_view_ != view) {
    wish_view_ = view;
    wish_ = core::WishMsg::sign(view, cfg_.id, *cfg_.suite, cfg_.secret_key,
                                group_tag_);
  }
  send_slot(0, exec_slots(), net::tags::kWish, wish_);
}

bool SmrReplica::enqueue(Request request, ReplicaId origin) {
  if (request.payload.empty() ||
      4 + request_wire_size(request) > limits_.max_bytes) {
    return false;
  }
  if (queue_.size() + held_.size() >= kMaxPendingRequests) {
    return false;  // backpressure: a forward flood must not grow memory
  }
  if (request.seq <= last_executed_seq(request.client)) {
    return false;  // already executed (or superseded): retry is a no-op
  }
  if (!pending_keys_.emplace(std::make_pair(request.client, request.seq),
                             origin)
           .second) {
    return false;  // already queued, held or assigned to an in-flight slot
  }
  const std::uint64_t client = request.client;
  if (predecessor_here(client, request.seq)) {
    admit(std::move(request));
    release_held(client);
  } else {
    // A pipelined client's forwards can cross on the link. Batching a
    // later seq first would make dedup supersede the earlier ones, so
    // the later seq waits for its predecessor.
    const std::uint64_t seq = request.seq;
    held_.emplace(std::make_pair(client, seq),
                  HeldRequest{std::move(request)});
  }
  wake_view_timer();
  maybe_open_slots(/*pace_expired=*/false);
  return true;
}

bool SmrReplica::predecessor_here(std::uint64_t client,
                                  std::uint64_t seq) const {
  if (seq <= last_executed_seq(client) + 1) return true;
  return pending_keys_.count({client, seq - 1}) != 0 &&
         held_.count({client, seq - 1}) == 0;
}

void SmrReplica::admit(Request request) {
  queue_bytes_ += request_wire_size(request);
  // Keep each client's queued requests in seq order: a request released
  // late goes ahead of the client's later seqs already queued.
  const auto later = pending_keys_.upper_bound({request.client, request.seq});
  if (later != pending_keys_.end() && later->first.first == request.client) {
    const auto pos = std::find_if(
        queue_.begin(), queue_.end(), [&request](const Request& queued) {
          return queued.client == request.client && queued.seq > request.seq;
        });
    queue_.insert(pos, std::move(request));
    return;
  }
  queue_.push_back(std::move(request));
}

void SmrReplica::release_held(std::uint64_t client) {
  auto it = held_.lower_bound({client, 0});
  while (it != held_.end() && it->first.first == client) {
    const std::uint64_t seq = it->first.second;
    if (seq <= last_executed_seq(client)) {
      pending_keys_.erase(it->first);
      it = held_.erase(it);
      continue;
    }
    if (!predecessor_here(client, seq)) return;
    Request req = std::move(it->second.request);
    it = held_.erase(it);
    admit(std::move(req));
  }
}

void SmrReplica::release_all_held() {
  for (auto it = held_.begin(); it != held_.end();) {
    const std::uint64_t client = it->first.first;
    release_held(client);
    it = held_.upper_bound({client, UINT64_MAX});
  }
}

void SmrReplica::age_held() {
  // The predecessor may never come here (the client skipped it, or it
  // executed at peers we have not heard from): after a full pacing
  // period, admit the request anyway.
  for (auto it = held_.begin(); it != held_.end();) {
    if (++it->second.expiries < 2) {
      ++it;
      continue;
    }
    Request req = std::move(it->second.request);
    it = held_.erase(it);
    admit(std::move(req));
  }
  release_all_held();
}

std::uint64_t SmrReplica::last_executed_seq(std::uint64_t client) const {
  const auto it = last_exec_.find(client);
  return it == last_exec_.end() ? 0 : it->second;
}

bool SmrReplica::full_batch_ready() const {
  return queue_.size() >= limits_.max_commands ||
         4 + queue_bytes_ >= limits_.max_bytes;
}

void SmrReplica::maybe_open_slots(bool pace_expired) {
  if (!started_) return;
  if (next_open_ < exec_slots()) next_open_ = exec_slots();
  while (next_open_ < open_limit()) {
    if (decided_out_of_order_.count(next_open_) != 0) {
      ++next_open_;  // outcome already known (hints): no instance needed
      continue;
    }
    // A follower's queue waits for the leader's slots: its own batch
    // would open a slot no leader fills.
    if (queue_.empty() || leader() != cfg_.id) break;
    if (!full_batch_ready() && !pace_expired) break;
    pace_expired = false;  // one partial batch per pacing expiry
    open_next_slot();
  }
  // Pacing opens the leader's partial batch and ages held requests.
  const bool opens = leader() == cfg_.id && !queue_.empty();
  if ((opens || !held_.empty()) && next_open_ < open_limit() &&
      !pace_armed_) {
    arm_pacing();
  }
  if (exec_slots() < next_open_) catchup_.pull_while_behind(next_open_);
}

void SmrReplica::open_slots_through(std::uint64_t slot) {
  if (!started_) return;
  if (next_open_ < exec_slots()) next_open_ = exec_slots();
  while (next_open_ <= slot && next_open_ < open_limit()) {
    if (decided_out_of_order_.count(next_open_) != 0) {
      ++next_open_;
      continue;
    }
    open_next_slot();
  }
  if (exec_slots() < next_open_) catchup_.pull_while_behind(next_open_);
}

void SmrReplica::arm_pacing() {
  pace_armed_ = true;
  host_.set_timer(kBatchTimeout, [this] {
    collect_retired();
    pace_armed_ = false;
    age_held();
    maybe_open_slots(/*pace_expired=*/true);
  });
}

void SmrReplica::open_next_slot() {
  const std::uint64_t slot = next_open_++;

  // Draw the slot's batch from the queue head; one request always fits
  // (enqueue rejects requests beyond the byte cap).
  Batch batch;
  std::size_t bytes = 4;
  while (!queue_.empty() && batch.size() < limits_.max_commands) {
    const std::size_t add = request_wire_size(queue_.front());
    if (!batch.empty() && bytes + add > limits_.max_bytes) break;
    bytes += add;
    queue_bytes_ -= add;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }

  core::ReplicaConfig rc;
  rc.id = cfg_.id;
  rc.n = cfg_.n;
  rc.f = cfg_.f;
  rc.o = cfg_.o;
  rc.l = cfg_.l;
  Writer instance;  // (group, slot)
  instance.raw(group_tag_);
  instance.u64(slot);
  rc.instance = std::move(instance).take();
  rc.my_value = encode_batch(batch);
  rc.valid = [limits = limits_](const Bytes& value) {
    return is_valid_batch(value, limits);
  };
  rc.fast_verify = cfg_.fast_verify;
  rc.sample_memo = &*sample_memo_;
  rc.suite = cfg_.suite;
  rc.secret_key = cfg_.secret_key;
  rc.public_keys = cfg_.public_keys;

  assigned_count_ += batch.size();
  assigned_.emplace(slot, std::move(batch));

  // The per-slot instance talks to a derived host that prefixes wire
  // traffic with the slot number and funnels decisions into the log.
  core::ProtocolHost slot_host;
  slot_host.send = [this, slot](ReplicaId to, std::uint8_t tag,
                                const Bytes& m) {
    send_slot(to, slot, tag, m);
  };
  slot_host.broadcast = [this, slot](std::uint8_t tag, const Bytes& m) {
    send_slot(0, slot, tag, m);
  };
  slot_host.on_decide = [this, slot](View view, const Bytes& value) {
    on_slot_decided(slot, value, view);
  };

  instances_.emplace(
      slot, std::make_unique<core::Replica>(std::move(rc), std::nullopt,
                                            slot_host));
  wake_view_timer();
  // Past view 1 the leader's Wish announces the slot: peers open it and
  // send their NewLeader for it. A peer not known to have wished for the
  // view missed the view change and needs 2f + 1 Wishes to follow, so a
  // follower passes its Wish on to such peers only.
  if (view() > 1) {
    const bool leads = leader() == cfg_.id;
    for (ReplicaId to = 1; to <= cfg_.n; ++to) {
      if (to != cfg_.id && (leads || sync_.latest_wish(to) < view())) {
        send_slot(to, slot, net::tags::kWish, wish_);
      }
    }
  }
  instances_.at(slot)->move_to(view());

  // Replay traffic that raced ahead of this slot.
  const auto it = buffered_.find(slot);
  if (it != buffered_.end()) {
    const auto pending = std::move(it->second);
    buffered_.erase(it);
    for (const auto& msg : pending) {
      const auto inst = instances_.find(slot);
      if (inst == instances_.end()) break;  // decided & executed mid-replay
      inst->second->on_message(msg.from, msg.tag, msg.payload);
    }
  }
}

void SmrReplica::send_slot(ReplicaId to, std::uint64_t slot,
                           std::uint8_t tag, const Bytes& m) {
  Writer w;
  w.u64(slot);
  w.u8(tag);
  w.raw(m);
  Bytes frame = std::move(w).take();
  if (reads_.hold_back(to, tag, frame)) return;
  if (to == 0) {
    host_.broadcast(kSmrTag, std::move(frame));
  } else {
    host_.send(to, kSmrTag, std::move(frame));
  }
}

void SmrReplica::on_slot_decided(std::uint64_t slot, const Bytes& value,
                                 View view) {
  reads_.on_decide(view);
  if (slot < exec_slots()) return;  // already executed
  decided_out_of_order_.emplace(slot, value);
  execute_ready_slots();
}

void SmrReplica::execute_ready_slots() {
  bool advanced = false;
  while (true) {
    const auto it = decided_out_of_order_.find(exec_slots());
    if (it == decided_out_of_order_.end()) break;
    const std::uint64_t slot = it->first;
    Bytes value = std::move(it->second);
    decided_out_of_order_.erase(it);

    // Durability point: a crash after a reply can always replay the slot.
    catchup_.persist(slot, value);

    Batch batch;
    try {
      batch = decode_batch(value, limits_);
    } catch (const CodecError&) {
      batch.clear();  // unreachable behind the validity predicate
    }
    for (Request& req : batch) {
      auto& last = last_exec_[req.client];
      if (req.seq <= last) continue;  // replayed request: execute once
      last = req.seq;
      ExecutedCommand exec;
      exec.slot = slot;
      exec.index = exec_count_;
      exec.client = req.client;
      exec.seq = req.seq;
      exec.payload = std::move(req.payload);
      ++exec_count_;
      reads_.apply(exec.slot, exec.index, exec.payload);
      if (!catchup_.recovering() && cfg_.on_execute) cfg_.on_execute(exec);
    }

    // This replica's own assignment for the slot: whatever the decided
    // batch did not cover goes back to the queue head for reproposal.
    const auto ait = assigned_.find(slot);
    if (ait != assigned_.end()) {
      Batch mine = std::move(ait->second);
      assigned_.erase(ait);
      requeue_lost(std::move(mine));
    }
    // Scrub queued requests another replica's batch just executed.
    scrub_executed();

    catchup_.on_executed(std::move(value), exec_count_, last_exec_);
    reads_.set_executed(exec_slots());
    advanced = true;
  }
  if (advanced) {
    restart_view_timer();
    reads_.drain_parked_reads();
    retire_executed_slots();
    // Traffic that raced ahead of the window is replayed as soon as its
    // slot fits: the sender may have nothing more to say until this
    // replica answers (a slot that starts past view 1 opens with the
    // group's Wish).
    const auto ahead = buffered_.lower_bound(open_limit());
    if (ahead != buffered_.begin()) open_slots_through(std::prev(ahead)->first);
    maybe_open_slots(/*pace_expired=*/false);
  }
}

void SmrReplica::requeue_lost(Batch mine) {
  assigned_count_ -= mine.size();
  std::size_t requeued = 0;
  for (auto rit = mine.rbegin(); rit != mine.rend(); ++rit) {
    if (rit->seq <= last_executed_seq(rit->client)) {
      pending_keys_.erase({rit->client, rit->seq});
      continue;
    }
    queue_bytes_ += request_wire_size(*rit);
    queue_.push_front(std::move(*rit));
    ++requeued;
  }
  // A non-leader's batch only decides if this replica comes to lead; the
  // leader may never have seen these requests (or saw them superseded by
  // a slot it lost), so hand them over again. The leader drops repeats.
  for (std::size_t i = 0; i < requeued; ++i) forward_to_leader(queue_[i]);
}

void SmrReplica::scrub_executed() {
  for (auto qit = queue_.begin(); qit != queue_.end();) {
    if (qit->seq <= last_executed_seq(qit->client)) {
      pending_keys_.erase({qit->client, qit->seq});
      queue_bytes_ -= request_wire_size(*qit);
      qit = queue_.erase(qit);
    } else {
      ++qit;
    }
  }
  release_all_held();
}

void SmrReplica::retire_executed_slots() {
  const auto end = instances_.lower_bound(exec_slots());
  for (auto it = instances_.begin(); it != end; ++it) {
    retired_.push_back(std::move(it->second));
  }
  instances_.erase(instances_.begin(), end);
  buffered_.erase(buffered_.begin(), buffered_.lower_bound(exec_slots()));
}

void SmrReplica::on_prefix_jump(const CheckpointState& state) {
  const std::uint64_t slot = state.slot;

  // Our own in-flight assignments for skipped slots: requests the
  // checkpoint's dedup table does not cover go back to the queue head.
  last_exec_ = std::map<std::uint64_t, std::uint64_t>(
      state.last_exec.begin(), state.last_exec.end());
  for (auto ait = assigned_.begin();
       ait != assigned_.end() && ait->first < slot;) {
    Batch mine = std::move(ait->second);
    ait = assigned_.erase(ait);
    requeue_lost(std::move(mine));
  }
  scrub_executed();

  // The read path misses every write in the skipped stretch (the
  // checkpoint carries the dedup table, not the KV image).
  reads_.on_prefix_jump(slot);
  exec_count_ = state.exec_count;
  next_open_ = std::max(next_open_, slot);

  for (auto iit = instances_.begin();
       iit != instances_.end() && iit->first < slot;) {
    retired_.push_back(std::move(iit->second));
    iit = instances_.erase(iit);
  }
  decided_out_of_order_.erase(decided_out_of_order_.begin(),
                              decided_out_of_order_.lower_bound(slot));
  buffered_.erase(buffered_.begin(), buffered_.lower_bound(slot));

  restart_view_timer();
  execute_ready_slots();  // buffered decisions above the base may be ready
  maybe_open_slots(/*pace_expired=*/false);
}

void SmrReplica::handle_slot_envelope(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  const std::uint64_t slot = r.u64();
  const std::uint8_t inner_tag = r.u8();
  Bytes inner = r.raw(r.remaining());
  // The group tallies a Wish whatever its slot; the slot's instance
  // ignores it, but the frame still opens or buffers the slot.
  if (inner_tag == net::tags::kWish) on_wish_frame(from, inner);
  if (catchup_.on_slot_frame(from, slot, inner_tag)) return;  // executed

  auto it = instances_.find(slot);
  if (it == instances_.end() && slot >= next_open_ && slot < open_limit()) {
    open_slots_through(slot);
    it = instances_.find(slot);
  }
  if (it != instances_.end()) {
    it->second->on_message(from, inner_tag, inner);
    return;
  }
  // Beyond the open window (or already hint-decided): buffer within the
  // horizon, bounded per slot to resist flooding. Either way the sender
  // is ahead of us — make sure the catch-up pull is running.
  catchup_.pull_while_behind(next_open_);
  if (slot >= catchup_.horizon()) return;
  auto& bucket = buffered_[slot];
  if (bucket.size() < kMaxBufferedPerSlot) {
    bucket.push_back(Buffered{from, inner_tag, std::move(inner)});
  }
}

void SmrReplica::on_wish_frame(ReplicaId from, const Bytes& raw) {
  if (from == 0 || from > cfg_.n) return;
  // A Wish is re-sent in many slots' envelopes: verify its bytes once.
  auto& [bytes, view] = peer_wishes_[from];
  if (raw != bytes) {
    const auto verified = core::WishMsg::verify(
        from, raw, *cfg_.suite, cfg_.public_keys, group_tag_);
    if (!verified) return;
    bytes = raw;
    view = *verified;
  }
  sync_.on_wish(from, view);
}

void SmrReplica::on_message(ReplicaId from, std::uint8_t tag,
                            const Bytes& payload) {
  collect_retired();  // top-level event: no instance frame is live
  try {
    switch (tag) {
      case kSmrTag:
        handle_slot_envelope(from, payload);
        break;
      case kSmrForwardTag: {
        Reader r(payload);
        Request req = Request::decode(r);
        r.expect_exhausted();
        on_forward(from, std::move(req));
        break;
      }
      case kSmrLeaseTag:
        reads_.on_lease(from, payload);
        break;
      case kSmrReadIndexTag:
        reads_.on_read_index(from, payload);
        break;
      default:  // hints, pulls, checkpoint votes, state; ignores the rest
        catchup_.on_message(from, tag, payload);
        break;
    }
  } catch (const CodecError&) {
    // Malformed envelope: drop.
  }
}

}  // namespace probft::smr
