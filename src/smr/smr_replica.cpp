#include "smr/smr_replica.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"

namespace probft::smr {

namespace {

/// Encoded size one request adds to a batch (client + seq + length prefix
/// + payload); the batch itself starts at 4 bytes (count prefix).
[[nodiscard]] std::size_t request_wire_size(const Request& req) {
  return 8 + 8 + 4 + req.payload.size();
}

/// Distinct hinted values tracked per slot before further ones are
/// ignored (a Byzantine peer cannot grow the table unboundedly).
constexpr std::size_t kMaxHintValues = 8;

/// Per-slot cap on buffered messages for not-yet-opened slots.
constexpr std::size_t kMaxBufferedPerSlot = 4096;

/// Boundary slots tracked for checkpoint votes / pending snapshots at
/// once; older ones are evicted in favor of newer (a straggler's ancient
/// boundary will be covered by a peer's state transfer anyway).
constexpr std::size_t kMaxTrackedCkpts = 8;

/// Distinct state digests tracked per boundary (Byzantine votes cannot
/// grow the tally unboundedly).
constexpr std::size_t kMaxCkptDigests = 4;

}  // namespace

SmrReplica::SmrReplica(SmrConfig config, core::ProtocolHost host)
    : cfg_(std::move(config)),
      host_(std::move(host)),
      reads_(cfg_, host_, [this] { arm_catchup(); }) {
  if (cfg_.id == 0 || cfg_.id > cfg_.n || cfg_.suite == nullptr ||
      cfg_.public_keys.size() != cfg_.n + 1 ||
      cfg_.pipeline.max_slots == 0 || cfg_.pipeline.window == 0 ||
      cfg_.pipeline.batch_max_commands == 0 ||
      cfg_.pipeline.batch_max_bytes < 64) {
    throw std::invalid_argument("SmrReplica: bad configuration");
  }
  limits_.max_commands = cfg_.pipeline.batch_max_commands;
  limits_.max_bytes = cfg_.pipeline.batch_max_bytes;
  sample_memo_.emplace(*cfg_.suite, cfg_.secret_key,
                       cfg_.public_keys[cfg_.id]);
  chain_ = zero_digest();
  if (cfg_.wal != nullptr) recover_from_wal();
}

void SmrReplica::start() {
  started_ = true;
  if (recovered_slots_ > 0) {
    // Rejoin announcement: ask the cluster what happened past the
    // recovered prefix (peers answer with signed hints / a certified
    // checkpoint if they moved further than our WAL knew).
    Writer w;
    w.u64(exec_slots());
    host_.broadcast(kSmrPullTag, std::move(w).take());
  }
  maybe_open_slots(/*pace_expired=*/false);
  reads_.start();
}

void SmrReplica::submit(Bytes command) {
  if (command.empty()) {
    throw std::invalid_argument("submit: command must be non-empty");
  }
  Request req{cfg_.id, local_seq_ + 1, std::move(command)};
  if (4 + request_wire_size(req) > limits_.max_bytes) {
    throw std::invalid_argument("submit: command exceeds the batch byte cap");
  }
  ++local_seq_;
  if (!submit_request(req.client, req.seq, std::move(req.payload))) {
    // Local seqs are unique, so the only rejection is the intake cap.
    throw std::overflow_error("submit: request queue is full");
  }
}

bool SmrReplica::submit_request(std::uint64_t client, std::uint64_t seq,
                                Bytes payload) {
  Request req{client, seq, std::move(payload)};
  std::optional<Request> forward;
  if (engine_leader() != cfg_.id) forward = req;
  if (!enqueue(std::move(req))) return false;
  if (forward) forward_to_leader(*forward);
  return true;
}

void SmrReplica::forward_to_leader(const Request& request) {
  const ReplicaId leader = engine_leader();
  if (leader == cfg_.id) return;
  if (cfg_.forward) {
    cfg_.forward(leader, request);
    return;
  }
  Writer w;
  request.encode(w);
  host_.send(leader, kSmrForwardTag, std::move(w).take());
}

void SmrReplica::raise_engine_view(View view) {
  if (view <= engine_view_) return;
  const ReplicaId before = engine_leader();
  engine_view_ = view;
  if (engine_leader() == before) return;
  // The queue was forwarded to the old leader (or is this replica's own
  // from when it led): hand it to the new one, in order.
  for (const Request& req : queue_) forward_to_leader(req);
  for (const auto& [key, held] : held_) forward_to_leader(held.request);
}

bool SmrReplica::enqueue(Request request) {
  if (request.payload.empty() ||
      4 + request_wire_size(request) > limits_.max_bytes) {
    return false;
  }
  if (queue_.size() + held_.size() >= cfg_.pipeline.max_pending_requests) {
    return false;  // backpressure: a forward flood must not grow memory
  }
  if (request.seq <= last_executed_seq(request.client)) {
    return false;  // already executed (or superseded): retry is a no-op
  }
  if (!pending_keys_.insert({request.client, request.seq}).second) {
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
  if (later != pending_keys_.end() && later->first == request.client) {
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

std::vector<Bytes> SmrReplica::log() const {
  std::vector<Bytes> payloads;
  payloads.reserve(exec_log_.size());
  for (const LogEntry& e : exec_log_) payloads.push_back(e.payload);
  return payloads;
}

bool SmrReplica::has_committed(const Bytes& payload) const {
  return std::any_of(exec_log_.begin(), exec_log_.end(),
                     [&payload](const LogEntry& e) {
                       return e.payload == payload;
                     });
}

std::uint64_t SmrReplica::last_executed_seq(std::uint64_t client) const {
  const auto it = last_exec_.find(client);
  return it == last_exec_.end() ? 0 : it->second;
}

std::uint64_t SmrReplica::open_limit() const {
  return std::min<std::uint64_t>(cfg_.pipeline.max_slots,
                                 exec_slots() + cfg_.pipeline.window);
}

std::uint64_t SmrReplica::horizon() const {
  return std::min<std::uint64_t>(
      cfg_.pipeline.max_slots,
      exec_slots() + 2 * static_cast<std::uint64_t>(cfg_.pipeline.window));
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
    if (queue_.empty()) break;
    if (!full_batch_ready() && !pace_expired) break;
    pace_expired = false;  // one partial batch per pacing expiry
    open_next_slot();
  }
  if ((!queue_.empty() || !held_.empty()) && next_open_ < open_limit() &&
      !pace_armed_) {
    arm_pacing();
  }
  if (exec_slots() < next_open_) arm_catchup();
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
  if (exec_slots() < next_open_) arm_catchup();
}

void SmrReplica::arm_pacing() {
  pace_armed_ = true;
  host_.set_timer(cfg_.pipeline.batch_timeout, [this] {
    collect_retired();
    pace_armed_ = false;
    age_held();
    maybe_open_slots(/*pace_expired=*/true);
  });
}

void SmrReplica::arm_catchup() {
  // Behind = execution trails either a locally opened slot or any slot a
  // peer has been seen working on (the gap may exceed the window — a
  // straggler that missed a whole stretch must still pull itself back).
  if (catchup_armed_ ||
      (exec_slots() >= next_open_ && exec_slots() >= max_seen_slot_)) {
    return;
  }
  catchup_armed_ = true;
  const std::uint64_t mark = exec_slots();
  host_.set_timer(cfg_.pipeline.catchup_timeout, [this, mark] {
    collect_retired();
    catchup_armed_ = false;
    if (exec_slots() >= next_open_ && exec_slots() >= max_seen_slot_) return;
    if (exec_slots() == mark) {
      // Execution is stuck on the same slot a full period later: ask
      // peers that already executed it for the decided value.
      Writer w;
      w.u64(exec_slots());
      host_.broadcast(kSmrPullTag, std::move(w).take());
    }
    arm_catchup();  // keep watching while behind
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
  rc.leader_offset = cfg_.leader_offset;
  rc.my_value = encode_batch(batch);
  rc.valid = [limits = limits_](const Bytes& value) {
    return is_valid_batch(value, limits);
  };
  // A decided instance freezes its synchronizer; stragglers catch up via
  // decided-value hints, not via decided replicas' view changes.
  rc.stop_sync_on_decide = true;
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
  // Retired instances are destroyed while their timers may still be in
  // flight; the wrapper drops a firing whose slot is gone.
  slot_host.set_timer = [this, slot](Duration delay,
                                     std::function<void()> fn) {
    host_.set_timer(delay, [this, slot, fn = std::move(fn)] {
      collect_retired();  // top-level event: no instance frame is live
      if (instances_.count(slot) != 0) fn();
    });
  };
  slot_host.on_decide = [this, slot](View view, const Bytes& value) {
    on_slot_decided(slot, value, view);
  };

  instances_.emplace(slot, std::make_unique<core::Replica>(
                               std::move(rc), cfg_.sync, slot_host));
  instances_.at(slot)->start(engine_view_);

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
  raise_engine_view(view);
  reads_.on_decide(view);
  if (slot < exec_slots()) return;  // already executed
  decided_out_of_order_.emplace(slot, value);
  execute_ready_slots();
}

Bytes SmrReplica::encode_decide_record(std::uint64_t slot,
                                       const Bytes& value) {
  Writer w;
  w.u64(slot);
  w.bytes(value);
  return std::move(w).take();
}

void SmrReplica::execute_ready_slots() {
  bool advanced = false;
  while (true) {
    const auto it = decided_out_of_order_.find(exec_slots());
    if (it == decided_out_of_order_.end()) break;
    const std::uint64_t slot = it->first;
    Bytes value = std::move(it->second);
    decided_out_of_order_.erase(it);

    // Durability point: the decide reaches the WAL (and disk, when fsync
    // is on) before any client-visible execution effect, so a crash after
    // a reply can always replay the slot. Recovery replays records that
    // are already on disk — no re-append.
    if (cfg_.wal != nullptr && !recovering_) {
      cfg_.wal->append(encode_decide_record(slot, value));
      cfg_.wal->sync();
    }

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
      exec.payload = req.payload;
      ++exec_count_;
      exec_log_.push_back({req.client, std::move(req.payload)});
      reads_.apply(exec.slot, exec.index, exec.payload);
      if (!recovering_) {
        if (host_.on_commit) host_.on_commit(exec.index, exec.payload);
        if (cfg_.on_execute) cfg_.on_execute(exec);
      }
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

    log_.push_back(std::move(value));
    chain_ = chain_digest(chain_, log_.back());
    reads_.set_executed(exec_slots());
    advanced = true;
    maybe_checkpoint();
  }
  if (advanced) {
    reads_.drain_parked_reads();
    retire_executed_slots();
    // Traffic that raced ahead of the window is replayed as soon as its
    // slot fits: the sender may have nothing more to say until this
    // replica answers (a slot that starts past view 1 opens with a
    // single Wish).
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
  const std::uint64_t exec = exec_slots();
  const std::uint64_t keep_from =
      exec > cfg_.pipeline.retire_tail ? exec - cfg_.pipeline.retire_tail : 0;
  const auto end = instances_.lower_bound(keep_from);
  for (auto it = instances_.begin(); it != end; ++it) {
    retired_.push_back(std::move(it->second));
  }
  instances_.erase(instances_.begin(), end);
  buffered_.erase(buffered_.begin(), buffered_.lower_bound(exec));
  hints_.erase(hints_.begin(), hints_.lower_bound(exec));
}

void SmrReplica::collect_retired() { retired_.clear(); }

// ---- checkpoints ----

CheckpointState SmrReplica::snapshot_state() const {
  CheckpointState state;
  state.slot = exec_slots();
  state.exec_count = exec_count_;
  state.log_digest = chain_;
  state.last_exec.assign(last_exec_.begin(), last_exec_.end());
  return state;
}

void SmrReplica::maybe_checkpoint() {
  const std::uint64_t interval = cfg_.pipeline.checkpoint_interval;
  const std::uint64_t slot = exec_slots();
  if (interval == 0 || slot % interval != 0) return;
  if (slot <= stable_slot_ || pending_states_.count(slot) != 0) return;
  CheckpointState state = snapshot_state();
  Bytes digest = state.digest();
  const Bytes msg = checkpoint_signing_bytes(slot, digest);
  Bytes sig = cfg_.suite->sign(cfg_.secret_key, msg);
  record_ckpt_vote(slot, digest, cfg_.id, sig);
  if (pending_states_.size() >= kMaxTrackedCkpts) {
    pending_states_.erase(pending_states_.begin());
  }
  pending_states_.emplace(slot, std::make_pair(std::move(state), digest));
  if (recovering_) return;  // replay: the cluster voted long ago
  CheckpointVote vote{slot, digest, cfg_.id, std::move(sig)};
  Writer w;
  vote.encode(w);
  host_.broadcast(kSmrCkptTag, std::move(w).take());
  try_stabilize(slot);
}

void SmrReplica::record_ckpt_vote(std::uint64_t slot, const Bytes& digest,
                                  ReplicaId signer, Bytes signature) {
  auto it = ckpt_votes_.find(slot);
  if (it == ckpt_votes_.end()) {
    if (ckpt_votes_.size() >= kMaxTrackedCkpts) {
      const auto lowest = ckpt_votes_.begin();
      if (lowest->first >= slot) return;  // older than everything tracked
      ckpt_votes_.erase(lowest);
    }
    it = ckpt_votes_.emplace(slot, std::vector<CkptTally>{}).first;
  }
  auto& tallies = it->second;
  auto tit = std::find_if(
      tallies.begin(), tallies.end(),
      [&digest](const CkptTally& t) { return t.digest == digest; });
  if (tit == tallies.end()) {
    if (tallies.size() >= kMaxCkptDigests) return;
    tallies.push_back(CkptTally{digest, {}});
    tit = std::prev(tallies.end());
  }
  tit->sigs.emplace(signer, std::move(signature));
}

void SmrReplica::try_stabilize(std::uint64_t slot) {
  const auto pit = pending_states_.find(slot);
  if (pit == pending_states_.end()) return;
  const auto vit = ckpt_votes_.find(slot);
  if (vit == ckpt_votes_.end()) return;
  const std::size_t quorum = 2 * static_cast<std::size_t>(cfg_.f) + 1;
  for (const CkptTally& tally : vit->second) {
    if (tally.digest != pit->second.second || tally.sigs.size() < quorum) {
      continue;
    }
    CheckpointCert cert;
    cert.slot = slot;
    cert.state_digest = tally.digest;
    cert.signatures.assign(tally.sigs.begin(), tally.sigs.end());
    stabilize(pit->second.first, std::move(cert));
    return;
  }
}

void SmrReplica::stabilize(CheckpointState state, CheckpointCert cert) {
  const std::uint64_t slot = state.slot;
  if (slot <= stable_slot_ && stable_.has_value()) return;
  set_stable(std::move(state), std::move(cert));
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(slot - log_base_));
  log_base_ = slot;
}

void SmrReplica::set_stable(CheckpointState state, CheckpointCert cert) {
  const std::uint64_t slot = state.slot;
  if (cfg_.wal != nullptr && !recovering_) {
    // Persist before truncating memory: the WAL's new segment carries the
    // retained tail [slot, exec), the snapshot record carries state + cert.
    Writer w;
    state.encode(w);
    cert.encode(w);
    std::vector<Bytes> tail;
    for (std::uint64_t s = slot; s < exec_slots(); ++s) {
      tail.push_back(encode_decide_record(s, log_[s - log_base_]));
    }
    cfg_.wal->checkpoint(slot, std::move(w).take(), tail);
  }
  hint_wire_.erase(hint_wire_.begin(), hint_wire_.lower_bound(slot));
  pending_states_.erase(pending_states_.begin(),
                        pending_states_.upper_bound(slot));
  ckpt_votes_.erase(ckpt_votes_.begin(), ckpt_votes_.upper_bound(slot));
  stable_slot_ = slot;
  stable_ = std::make_pair(std::move(state), std::move(cert));
}

void SmrReplica::install_checkpoint(CheckpointState state,
                                    CheckpointCert cert) {
  const std::uint64_t slot = state.slot;  // > exec_slots(), caller-checked

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

  // Jump the log: everything below `slot` is summarized by the cert.
  // exec_log_ keeps only locally-executed requests (documented gap), and
  // the read path misses every write in the skipped stretch (the
  // checkpoint carries the dedup table, not the KV image).
  reads_.on_prefix_jump(slot);
  exec_count_ = state.exec_count;
  chain_ = state.log_digest;
  log_.clear();
  log_base_ = slot;
  next_open_ = std::max(next_open_, slot);
  max_seen_slot_ = std::max(max_seen_slot_, slot);

  for (auto iit = instances_.begin();
       iit != instances_.end() && iit->first < slot;) {
    retired_.push_back(std::move(iit->second));
    iit = instances_.erase(iit);
  }
  decided_out_of_order_.erase(decided_out_of_order_.begin(),
                              decided_out_of_order_.lower_bound(slot));
  buffered_.erase(buffered_.begin(), buffered_.lower_bound(slot));
  hints_.erase(hints_.begin(), hints_.lower_bound(slot));
  set_stable(std::move(state), std::move(cert));

  execute_ready_slots();  // buffered decisions above the base may be ready
  maybe_open_slots(/*pace_expired=*/false);
}

void SmrReplica::recover_from_wal() {
  recovering_ = true;
  const auto& snap = cfg_.wal->snapshot();
  if (snap.has_value()) {
    Reader r(*snap);
    CheckpointState state = CheckpointState::decode(r);
    CheckpointCert cert = CheckpointCert::decode(r);
    r.expect_exhausted();
    if (!certifies(state, cert)) {
      throw std::runtime_error("SmrReplica: WAL checkpoint fails its cert");
    }
    install_checkpoint(std::move(state), std::move(cert));
  }
  for (const Bytes& record : cfg_.wal->records()) {
    Reader r(record);
    const std::uint64_t slot = r.u64();
    Bytes value = r.bytes();
    r.expect_exhausted();
    if (slot != exec_slots()) continue;  // stale segment noise: skip
    if (!is_valid_batch(value, limits_)) {
      throw std::runtime_error("SmrReplica: corrupt decide record in WAL");
    }
    decided_out_of_order_.emplace(slot, std::move(value));
    execute_ready_slots();
  }
  recovered_slots_ = exec_slots();
  if (next_open_ < exec_slots()) next_open_ = exec_slots();
  if (recovered_slots_ > 0) reads_.on_replay();
  recovering_ = false;
}

// ---- catch-up ----

void SmrReplica::send_hint(ReplicaId to, std::uint64_t slot) {
  // handle_pull answers a window's worth of slots per straggler, and
  // several stragglers typically ask for the same stretch — encode and
  // sign the hint once per slot and reuse the wire bytes (the signature
  // is deterministic, so the frame is bit-identical either way).
  auto it = hint_wire_.find(slot);
  if (it == hint_wire_.end()) {
    const Bytes& value = log_[slot - log_base_];
    const Bytes msg = hint_signing_bytes(slot, crypto::sha256(value));
    Bytes sig = cfg_.suite->sign(cfg_.secret_key, msg);
    Writer w;
    w.u64(slot);
    w.bytes(value);
    w.bytes(sig);
    it = hint_wire_.emplace(slot, std::move(w).take()).first;
  }
  host_.send(to, kSmrHintTag, it->second);
}

void SmrReplica::send_state(ReplicaId to) {
  if (!stable_.has_value()) return;
  Writer w;
  stable_->first.encode(w);
  stable_->second.encode(w);
  host_.send(to, kSmrStateTag, std::move(w).take());
}

void SmrReplica::handle_slot_envelope(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  const std::uint64_t slot = r.u64();
  const std::uint8_t inner_tag = r.u8();
  Bytes inner = r.raw(r.remaining());
  if (slot >= cfg_.pipeline.max_slots) return;  // out of configured range
  max_seen_slot_ = std::max(max_seen_slot_, slot + 1);

  if (slot < log_base_) {
    // Truncated here: the sender is behind our stable checkpoint — the
    // certified summary is the only answer we still have.
    send_state(from);
    return;
  }
  if (slot < exec_slots()) {
    // Executed here: the sender is behind — answer with the outcome
    // instead of replaying a retired instance.
    send_hint(from, slot);
    return;
  }

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
  arm_catchup();
  if (slot >= horizon()) return;
  auto& bucket = buffered_[slot];
  if (bucket.size() < kMaxBufferedPerSlot) {
    bucket.push_back(Buffered{from, inner_tag, std::move(inner)});
  }
}

void SmrReplica::handle_forward(ReplicaId from, const Bytes& payload) {
  (void)from;  // any replica may forward; dedup makes replays harmless
  Reader r(payload);
  Request req = Request::decode(r);
  r.expect_exhausted();
  (void)enqueue(std::move(req));
}

void SmrReplica::handle_hint(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  const std::uint64_t slot = r.u64();
  Bytes value = r.bytes();
  Bytes signature = r.bytes();
  r.expect_exhausted();
  if (slot >= cfg_.pipeline.max_slots) return;
  max_seen_slot_ = std::max(max_seen_slot_, slot + 1);
  if (slot < exec_slots() || slot >= horizon()) return;
  if (!is_valid_batch(value, limits_)) return;
  // A voucher only counts if the hint verifies under the claimed sender's
  // key: a peer that forges f+1 sender ids still commands one keypair, so
  // it can never assemble f+1 valid vouchers for an undecided value.
  const Bytes msg = hint_signing_bytes(slot, crypto::sha256(value));
  if (!cfg_.suite->verify(cfg_.public_keys[from], msg, signature)) return;
  auto& slot_hints = hints_[slot];
  auto vit = std::find_if(
      slot_hints.begin(), slot_hints.end(),
      [&value](const HintEntry& entry) { return entry.value == value; });
  if (vit == slot_hints.end()) {
    if (slot_hints.size() >= kMaxHintValues) return;
    slot_hints.push_back(HintEntry{std::move(value), {}});
    vit = std::prev(slot_hints.end());
  }
  vit->vouchers.insert(from);
  // f + 1 distinct verified vouchers contain at least one correct replica
  // that executed the slot with this value.
  if (vit->vouchers.size() >= static_cast<std::size_t>(cfg_.f) + 1) {
    const Bytes decided = vit->value;
    on_slot_decided(slot, decided, /*view=*/0);
  }
}

void SmrReplica::handle_pull(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  const std::uint64_t slot = r.u64();
  r.expect_exhausted();
  if (slot < log_base_) {
    // The asked slot is below our truncation point: only the certified
    // checkpoint can cover it. Signed hints cover the retained stretch
    // above, so one answer advances the straggler past our base.
    send_state(from);
  }
  // Answer a window's worth of executed slots starting at the asked one,
  // so a straggler recovers window-per-round instead of slot-per-round.
  const std::uint64_t begin = std::max(slot, log_base_);
  const std::uint64_t upto = std::min<std::uint64_t>(
      exec_slots(), begin + cfg_.pipeline.window);
  for (std::uint64_t s = begin; s < upto; ++s) send_hint(from, s);
}

void SmrReplica::handle_ckpt_vote(ReplicaId from, const Bytes& payload) {
  Reader r(payload);
  CheckpointVote vote = CheckpointVote::decode(r);
  r.expect_exhausted();
  const std::uint64_t interval = cfg_.pipeline.checkpoint_interval;
  if (vote.signer != from) return;  // channel and signature must agree
  if (interval == 0 || vote.slot % interval != 0) return;
  if (vote.slot <= stable_slot_ || vote.slot > cfg_.pipeline.max_slots) {
    return;
  }
  const Bytes msg = checkpoint_signing_bytes(vote.slot, vote.state_digest);
  if (!cfg_.suite->verify(cfg_.public_keys[vote.signer], msg,
                          vote.signature)) {
    return;
  }
  // A boundary vote also tells a straggler the cluster reached that slot.
  max_seen_slot_ = std::max(max_seen_slot_, vote.slot);
  record_ckpt_vote(vote.slot, vote.state_digest, vote.signer,
                   std::move(vote.signature));
  try_stabilize(vote.slot);
  arm_catchup();
}

void SmrReplica::handle_state(ReplicaId from, const Bytes& payload) {
  (void)from;  // trust comes from the cert, not the channel
  Reader r(payload);
  CheckpointState state = CheckpointState::decode(r);
  CheckpointCert cert = CheckpointCert::decode(r);
  r.expect_exhausted();
  if (state.slot <= exec_slots()) return;  // not ahead of us
  if (state.slot > cfg_.pipeline.max_slots) return;
  if (certifies(state, cert)) {
    install_checkpoint(std::move(state), std::move(cert));
  }
}

bool SmrReplica::certifies(const CheckpointState& state,
                           const CheckpointCert& cert) const {
  return cert.slot == state.slot && cert.state_digest == state.digest() &&
         verify_checkpoint_cert(cert, cfg_.n, cfg_.f, *cfg_.suite,
                                cfg_.public_keys);
}

void SmrReplica::on_message(ReplicaId from, std::uint8_t tag,
                            const Bytes& payload) {
  collect_retired();  // top-level event: no instance frame is live
  try {
    switch (tag) {
      case kSmrTag:
        handle_slot_envelope(from, payload);
        break;
      case kSmrForwardTag:
        handle_forward(from, payload);
        break;
      case kSmrHintTag:
        handle_hint(from, payload);
        break;
      case kSmrPullTag:
        handle_pull(from, payload);
        break;
      case kSmrCkptTag:
        handle_ckpt_vote(from, payload);
        break;
      case kSmrStateTag:
        handle_state(from, payload);
        break;
      case kSmrLeaseTag:
        reads_.on_lease(from, payload);
        break;
      case kSmrReadIndexTag:
        reads_.on_read_index(from, payload);
        break;
      default:
        break;  // not SMR traffic
    }
  } catch (const CodecError&) {
    // Malformed envelope: drop.
  }
}

}  // namespace probft::smr
