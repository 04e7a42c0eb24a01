// State machine replication on top of ProBFT (paper §7: "leveraging ProBFT
// for constructing a scalable state machine replication protocol").
//
// The replicated log is a sequence of slots; each slot is decided by an
// independent single-shot ProBFT instance. All instances of one replica
// share the node's keypair and network connection — wire messages are the
// ProBFT messages prefixed with the slot number.
//
// Pipelined, batched engine (PBFT-style water marks):
//
//  - A slot decides a `Batch` of client requests (smr/batch.hpp), not a
//    single opaque command; requests carry (client id, seq) so replayed
//    requests are deduplicated via a per-client last-executed table.
//  - Slots [exec, exec + window) run concurrently; execution is strictly
//    in slot order. Decisions that land out of order buffer until the gap
//    fills. There is no slot limit: like PBFT's water marks, every bound
//    follows this replica's own execution point — the window, the
//    catch-up horizon exec + 2 * window (smr/checkpoint.hpp) and
//    kMaxBufferedPerSlot frames per slot not yet open.
//  - Slot opening is demand-driven. Only the group view's leader opens
//    slots from its own queue: when a full batch is ready, when its pacing
//    timer (kBatchTimeout) expires with requests queued, and at once on
//    entering a view it leads. Any replica opens a slot when consensus
//    traffic for it arrives from a peer (traffic that raced ahead of the
//    window opens its slot once execution brings it inside). An idle
//    system opens no slots and burns no no-op fillers.
//  - Group view: one sync::Synchronizer paces every slot (one PBFT view
//    covers every sequence number); slot instances have no timers. Its
//    timer runs while the group waits on something — an opened slot is
//    unexecuted, or a request is queued or held (PBFT's backup "waiting
//    for a request") — and restarts when execution advances; a request
//    starts a stopped timer but never postpones a running one. An idle
//    group still follows peers' wishes. Its Wish rides the envelope of
//    the lowest unexecuted slot. Entering a view moves every open
//    unexecuted slot there, and new slots start in it: past view 1 the
//    leader announces each slot it opens with the group's Wish, and a
//    follower that opens a slot passes its Wish only to peers not known
//    to have wished for the view (they missed the view change). Each
//    instance sends its own NewLeader, so safety rests on the leader's
//    ⌈(n+f+1)/2⌉ justification, not on where the slot started.
//  - A submission at a non-leader replica is relayed to every peer, so
//    every correct replica times it and a dead leader costs one view
//    timeout, not two. A replica that newly queues a peer's relay while
//    it is not the leader passes it to the leader once, so a relay that
//    skipped the leader cannot time out the followers. On entering a view
//    a non-leader forwards its queue to the new leader, in order, but for
//    what that leader relayed to it, and so is a non-leader's own batch
//    that lost its slot. A pipelined client's request whose predecessor
//    seq is neither executed nor queued here is held until it is, or for
//    at most two pacing periods, so crossing forwards cannot batch a
//    later seq ahead of an earlier one (highest-seq dedup would drop the
//    earlier).
//  - Signed messages name their slot: each slot instance signs under the
//    instance tag (group, slot), so no signature is valid in another
//    slot. The group field is the constant kGroupId (smr/checkpoint.hpp),
//    as in the Wish, hint and checkpoint-vote signing strings.
//  - Executed slots are retired: the per-slot core::Replica is destroyed
//    once its slot executes, so live instances are O(window). Frames for
//    an executed slot never reach an instance. Executed payloads are not
//    kept: they go to on_execute and the read view, and the decided log
//    is retained only above the stable checkpoint, so memory is
//    O(interval + window) slots plus the per-client dedup table and the
//    read view's keys, not O(log length).
//
// Certified catch-up and durability (signed hints, pulls, checkpoint
// votes, state transfer and the WAL) live in smr::CatchUp
// (smr/checkpoint.hpp), reads in smr::ReadPath (smr/reads.hpp); the
// replica owns one of each and drives them through hooks.
//
// Because each slot is a full ProBFT instance, the probabilistic agreement
// guarantee applies per slot, and the SMR inherits safety with probability
// (1 - exp(-Θ(√n)))^slots — still overwhelmingly close to 1 for realistic
// log lengths.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/protocol_host.hpp"
#include "core/replica.hpp"
#include "net/client.hpp"
#include "net/tags.hpp"
#include "smr/batch.hpp"
#include "smr/checkpoint.hpp"
#include "smr/reads.hpp"
#include "store/wal.hpp"

namespace probft::smr {

/// Outer wire tags, so SMR traffic can share a network with other tags.
/// Values live in the central registry (net/tags.hpp); these are local
/// re-exports so call sites keep their historical names.
inline constexpr std::uint8_t kSmrTag = net::tags::kSmr;
inline constexpr std::uint8_t kSmrForwardTag = net::tags::kSmrForward;
// Catch-up tags live in smr/checkpoint.hpp, read tags in smr/reads.hpp.

/// Pacing: with a non-empty but not-full queue, the leader opens a slot
/// after this long (µs) instead of waiting for the batch to fill.
inline constexpr Duration kBatchTimeout = 20'000;
/// Cap on requests in the intake queue plus those held for a missing
/// predecessor seq (local submissions and peer forwards combined); beyond
/// it, enqueue rejects — backpressure instead of unbounded memory under a
/// forward flood.
inline constexpr std::size_t kMaxPendingRequests = 8192;

/// Pipeline shape: how many instances run in flight, how requests batch,
/// and how often the log checkpoints. Plumbed through sim::NodeParams /
/// sim::ClusterConfig so the simulator, the TCP node binary and the
/// benches configure the engine identically. Nothing here caps the log's
/// length: slot numbers are bounded relative to execution (the window).
struct SmrOptions {
  /// In-flight window W: slots [exec, exec + window) may be open at once.
  /// window = 1 reproduces the old serial open-one-slot-at-a-time engine.
  std::uint32_t window = 8;
  /// Batch cap: a slot proposal carries at most this many requests (and
  /// at most kBatchMaxBytes encoded bytes, smr/batch.hpp).
  /// batch_max_commands = 1 reproduces one-command slots.
  std::uint32_t batch_max_commands = 64;
  /// Checkpoint every this many executed slots (0 disables). A stable
  /// checkpoint (2f + 1 matching votes) truncates the retained slot log
  /// below it, in memory and in the WAL.
  std::uint64_t checkpoint_interval = 16;

  // ---- read fast path (smr/reads.hpp) ----
  /// Serve reads from the local ReadView and participate in the lease /
  /// read-index protocols. Off (the default) rejects every submit_read
  /// and sends no read-path traffic, so the write path — and every
  /// pinned digest — is bit-identical to a build without reads.
  bool serve_reads = false;
  /// Leader-side lease validity (µs), clocked from the lease-request
  /// broadcast. Granters promise for lease_duration + lease_skew from
  /// the (strictly later) moment the request reaches them, so a deposed
  /// partitioned leader's validity always runs out before any granter's
  /// promise frees a view-change quorum.
  Duration lease_duration = 2'000'000;
  /// Extra granter-side margin absorbing clock-rate drift across nodes.
  Duration lease_skew = 500'000;
};

/// One executed request, reported in execution order.
struct ExecutedCommand {
  std::uint64_t slot = 0;   // log slot the request was decided in
  std::uint64_t index = 0;  // global execution index (0-based)
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  Bytes payload;
};

struct SmrConfig {
  ReplicaId id = 0;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  double o = 1.7;
  double l = 2.0;

  SmrOptions pipeline;

  /// ProBFT verification fast path for the per-slot instances.
  bool fast_verify = true;

  const crypto::CryptoSuite* suite = nullptr;
  Bytes secret_key;
  crypto::PublicKeyDir public_keys;

  /// Consensus pacing (the group synchronizer's settings).
  sync::SyncConfig sync;

  /// Optional durability: decides are appended (and fsync'd) here before
  /// client-visible execution, and stable checkpoints truncate it. The
  /// replica recovers from the WAL's contents at construction. Non-owning;
  /// must outlive the replica.
  store::Wal* wal = nullptr;

  /// Called once per executed request, in execution order. This is where
  /// a serving node sends client replies. Not called for requests
  /// replayed from the WAL at recovery.
  std::function<void(const ExecutedCommand&)> on_execute;
};

class SmrReplica : public core::INode {
 public:
  /// The host's `on_decide` is unused at this layer (per-slot decisions
  /// are internal; executions go to `config.on_execute`). If `config.wal`
  /// holds a recoverable state (snapshot and/or decide records), it is
  /// installed here — before start() — and throws std::runtime_error when
  /// the snapshot fails certificate verification.
  SmrReplica(SmrConfig config, core::ProtocolHost host);

  /// Demand-driven: nothing happens until a request is submitted or peer
  /// traffic arrives. A replica that recovered a non-empty log announces
  /// itself with one catch-up pull so peers re-seed it with whatever it
  /// missed while down.
  void start() override;

  /// Client-path entry: enqueues (client, seq, payload) for ordering.
  /// Returns false — and enqueues nothing — for duplicates (seq not past
  /// the client's last executed or already pending), for empty payloads
  /// or ones that cannot fit a batch, and while kMaxPendingRequests are
  /// queued or held. Retries are therefore idempotent.
  bool submit_request(std::uint64_t client, std::uint64_t seq, Bytes payload);

  using ReadResult = smr::ReadResult;
  using ReadCallback = smr::ReadCallback;

  /// Read-path entry (ReadPath::submit). A linearizable read served
  /// locally waits until every slot opened so far executed.
  void submit_read(Bytes key, net::ReadConsistency consistency,
                   std::uint64_t min_index, ReadCallback cb) {
    reads_.submit(std::move(key), consistency, min_index, next_open_,
                  std::move(cb));
  }

  void on_message(ReplicaId from, std::uint8_t tag,
                  const Bytes& payload) override;

  // ---- inspection ----
  /// Decided batch encodings for the RETAINED slots [log_base(), exec);
  /// index i holds slot log_base() + i. Slots below the stable checkpoint
  /// are truncated away.
  [[nodiscard]] const std::vector<Bytes>& slot_log() const {
    return catchup_.log();
  }
  /// First retained slot (== the stable checkpoint slot).
  [[nodiscard]] std::uint64_t log_base() const {
    return catchup_.log_base();
  }
  /// Executed slots, counting truncated ones.
  [[nodiscard]] std::uint64_t committed_slots() const { return exec_slots(); }
  [[nodiscard]] std::uint64_t executed_commands() const { return exec_count_; }
  /// Hex chained digest over ALL executed slots (truncation-invariant):
  /// d0 = 0^32, d_{i+1} = SHA-256(d_i ‖ len ‖ batch_i). The log identity
  /// every harness compares across replicas.
  [[nodiscard]] std::string log_digest() const {
    return to_hex(catchup_.chain());
  }
  /// Slot of the stable (2f+1-certified) checkpoint; 0 before the first.
  [[nodiscard]] std::uint64_t stable_checkpoint() const {
    return catchup_.stable_checkpoint();
  }
  /// Executed slots restored from the WAL at construction (checkpoint
  /// base + replayed decide records); 0 when starting fresh.
  [[nodiscard]] std::uint64_t recovered_slots() const {
    return catchup_.recovered_slots();
  }
  /// Live per-slot consensus instances (bounded by the window).
  [[nodiscard]] std::size_t open_instances() const {
    return instances_.size();
  }
  [[nodiscard]] std::uint64_t next_unopened_slot() const {
    return next_open_;
  }
  /// The group's view: new slots start in it.
  [[nodiscard]] View view() const { return sync_.view(); }
  /// The group view's leader, where submissions at a non-leader go.
  [[nodiscard]] ReplicaId leader() const {
    return leader_of(view(), cfg_.n);
  }
  /// Requests queued, held or assigned to an in-flight slot, not yet
  /// executed.
  [[nodiscard]] std::size_t pending_commands() const {
    return queue_.size() + held_.size() + assigned_count_;
  }
  /// Last executed seq for `client` (0 if none) — the dedup table.
  [[nodiscard]] std::uint64_t last_executed_seq(std::uint64_t client) const;
  /// Whether (client, seq) is queued, held or assigned to a slot —
  /// i.e. a submit_request(...) == false was a retry of live work, not a
  /// rejection. Serving nodes use this to keep reply routes alive.
  [[nodiscard]] bool has_pending(std::uint64_t client,
                                 std::uint64_t seq) const {
    return pending_keys_.count({client, seq}) != 0;
  }
  /// The read path, for its state and counters.
  [[nodiscard]] const ReadPath& reads() const { return reads_; }
  [[nodiscard]] std::uint64_t reads_served() const {
    return reads_.reads_served();
  }
  [[nodiscard]] std::uint64_t lease_reads() const {
    return reads_.lease_reads();
  }

 private:
  struct Buffered {
    ReplicaId from;
    std::uint8_t tag;
    Bytes payload;
  };

  [[nodiscard]] std::uint64_t exec_slots() const {
    return catchup_.exec_slots();
  }

  /// `origin`: the peer that relayed the request here; 0 for a submission.
  [[nodiscard]] bool enqueue(Request request, ReplicaId origin = 0);
  /// Whether seq - 1 of `client` executed or is queued/assigned here.
  [[nodiscard]] bool predecessor_here(std::uint64_t client,
                                      std::uint64_t seq) const;
  /// Puts a request on the queue, behind the client's earlier seqs.
  void admit(Request request);
  /// Admits `client`'s held requests whose predecessor is now here (and
  /// drops those that executed meanwhile).
  void release_held(std::uint64_t client);
  void release_all_held();
  /// Pacing expiry: a request held through two of them is admitted.
  void age_held();
  /// A peer's relay or forward of a request (kSmrForwardTag): enqueued
  /// like a submission, and passed to the leader once when it is new here
  /// and this replica does not lead.
  void on_forward(ReplicaId from, Request request);
  /// Sends a kSmrForwardTag frame; `to` = 0 sends to every peer, a send
  /// to this replica is dropped. The local enqueue stays as the liveness
  /// fallback.
  void send_forward(ReplicaId to, const Request& request);
  void forward_to_leader(const Request& request) {
    send_forward(leader(), request);
  }
  /// The group entered `view`: open unexecuted slots and the queue follow.
  void enter_view(View view);
  /// Signed once per view; rides the lowest unexecuted slot's envelope.
  void broadcast_wish(View view);
  /// Whether a correct leader would make progress here: an opened slot is
  /// unexecuted, or a request is queued or held.
  [[nodiscard]] bool waiting() const {
    return exec_slots() < next_open_ || !queue_.empty() || !held_.empty();
  }
  /// Execution advanced: the view timer restarts while the group waits.
  void restart_view_timer() { sync_.restart_timer(waiting()); }
  /// The group started waiting: starts a stopped view timer and never
  /// postpones a running one.
  void wake_view_timer() {
    if (!sync_.timer_running()) sync_.restart_timer(true);
  }
  /// This replica's batch for a slot that decided something else: its
  /// unexecuted requests go back to the queue head and to the leader.
  void requeue_lost(Batch mine);
  /// Drops queued requests that executed, then releases held ones.
  void scrub_executed();
  [[nodiscard]] bool full_batch_ready() const;
  void maybe_open_slots(bool pace_expired);
  void open_slots_through(std::uint64_t slot);
  void open_next_slot();
  void arm_pacing();
  void handle_slot_envelope(ReplicaId from, const Bytes& payload);
  /// A peer's Wish frame; each sender's last verified bytes skip verify.
  void on_wish_frame(ReplicaId from, const Bytes& raw);
  /// `view` is the consensus view the slot decided in; 0 when unknown
  /// (hint adoption); the read path's lease watches it.
  void on_slot_decided(std::uint64_t slot, const Bytes& value, View view);
  void execute_ready_slots();
  /// Frames one slot's consensus message; `to` = 0 broadcasts.
  void send_slot(ReplicaId to, std::uint64_t slot, std::uint8_t tag,
                 const Bytes& m);
  void retire_executed_slots();
  void collect_retired() { retired_.clear(); }
  /// Upper bound (exclusive) on slots that may be open right now: the
  /// window above this replica's execution point, never an absolute cap.
  [[nodiscard]] std::uint64_t open_limit() const {
    return exec_slots() + cfg_.pipeline.window;
  }

  /// CatchUp's jump hook: the executed prefix moved to `state`. Replaces
  /// the dedup table, requeues own still-unexecuted assignments from
  /// skipped slots and retires their instances.
  void on_prefix_jump(const CheckpointState& state);

  SmrConfig cfg_;
  core::ProtocolHost host_;
  ReadPath reads_;
  CatchUp catchup_;
  BatchLimits limits_;

  // -- executed state (the decided log itself lives in catchup_) --
  std::uint64_t exec_count_ = 0;  // commands executed (incl. recovery)
  std::map<std::uint64_t, std::uint64_t> last_exec_;  // client → seq

  // -- request intake --
  std::deque<Request> queue_;   // not yet assigned to a slot
  /// Requests waiting for their predecessor seq, keyed (client, seq);
  /// `expiries` counts the pacing periods waited.
  struct HeldRequest {
    Request request;
    std::uint32_t expiries = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, HeldRequest> held_;
  std::size_t queue_bytes_ = 0; // encoded size the queue would batch to
  /// Every queued, held or assigned (client, seq), with the peer that
  /// relayed it here (0: submitted here).
  std::map<std::pair<std::uint64_t, std::uint64_t>, ReplicaId> pending_keys_;
  std::map<std::uint64_t, Batch> assigned_;  // slot → this replica's batch
  std::size_t assigned_count_ = 0;
  bool pace_armed_ = false;
  bool started_ = false;

  // -- in-flight slots --
  std::uint64_t next_open_ = 0;  // lowest never-opened slot
  sync::Synchronizer sync_;      // the group's view
  View wish_view_ = 0;           // the view wish_ asks for
  Bytes wish_;                   // this replica's signed WishMsg
  Bytes group_tag_;  // u64 kGroupId: the group in signing strings
  /// Per peer, the last Wish bytes that verified from it and their view.
  std::vector<std::pair<Bytes, View>> peer_wishes_;
  /// VRF samples and sample verdicts, shared by every slot's instance:
  /// samples are per (view, phase), so the slots of one view prove and
  /// verify each one once (core::ReplicaConfig::sample_memo).
  std::optional<crypto::SampleMemo> sample_memo_;
  std::map<std::uint64_t, std::unique_ptr<core::Replica>> instances_;
  /// Retirement is deferred: an instance may be retired from inside its
  /// own decision callback, so it parks here and is destroyed at the next
  /// top-level event (message or timer) when no instance frame is live.
  std::vector<std::unique_ptr<core::Replica>> retired_;
  std::map<std::uint64_t, Bytes> decided_out_of_order_;
  std::map<std::uint64_t, std::vector<Buffered>> buffered_;
};

}  // namespace probft::smr
