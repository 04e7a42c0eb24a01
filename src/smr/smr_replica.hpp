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
//    fills.
//  - Slot opening is demand-driven: a slot opens when this replica has a
//    full batch ready, when its pacing timer (batch_timeout) expires with
//    requests queued, or when consensus traffic for the slot arrives from
//    a peer (traffic that raced ahead of the window opens its slot once
//    execution brings it inside). An idle system opens no slots and
//    burns no no-op fillers.
//  - Engine view: the highest view in which a slot decided here through
//    consensus (hint adoption and WAL replay leave it alone). It only
//    grows. Every new slot's instance starts in it, so once a view change
//    passed a dead leader by, later slots go straight to the view that
//    works instead of each waiting out the view-1 timeout. Entering a
//    view past 1 broadcasts a Wish for it (which is how peers learn of
//    the slot) and sends NewLeader; the leader still proposes only with a
//    ⌈(n+f+1)/2⌉ NewLeader justification, so safety rests on that, not
//    on where the slot started. Fault-free runs never leave view 1.
//  - Submissions at a non-leader replica are forwarded to the engine
//    view's leader so they land in its next batch; the local copy is kept
//    as a liveness fallback. When the engine leader changes, the queue is
//    forwarded again, in order, and so is a non-leader's own batch that
//    lost its slot. A pipelined client's request whose predecessor seq is
//    neither executed nor queued here is held until it is, or for at most
//    two pacing periods, so crossing forwards cannot batch a later seq
//    ahead of an earlier one (highest-seq dedup would drop the earlier).
//  - Executed slots are retired: the per-slot core::Replica is destroyed
//    once execution has moved `retire_tail` slots past it, so memory is
//    O(window + tail) instead of O(log length).
//
// Certified catch-up and durability (smr/checkpoint.hpp, store/wal.hpp):
//
//  - Late traffic for an executed slot is answered with a decided-value
//    hint SIGNED over (slot, value digest); a replica adopts a hinted
//    value once f + 1 hints verify against f + 1 distinct replicas' public
//    keys (at least one correct), so vouchers cannot be forged by a peer
//    that spoofs sender ids.
//  - Every `checkpoint_interval` executed slots the replica broadcasts a
//    signed vote over its state digest (chained log digest + dedup table
//    + next-exec slot); 2f + 1 matching votes form a CheckpointCert. The
//    stable checkpoint truncates the retained slot log (memory and, with
//    a WAL, disk stay O(interval + window) instead of O(log length)).
//  - A straggler whose gap starts below a peer's truncation point adopts
//    the peer's checkpoint only after verifying its 2f + 1 cert, then
//    fills the remaining slots from signed hints — state transfer needs
//    no channel trust at all.
//  - With a `store::Wal` attached, every decide is appended (CRC-framed,
//    fsync'd) before client-visible execution, and stable checkpoints
//    atomically replace the log's tail on disk; a kill -9'd replica
//    rejoins from its last stable checkpoint instead of genesis.
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
#include <set>
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
#include "smr/read_view.hpp"
#include "smr/reads.hpp"
#include "store/wal.hpp"

namespace probft::smr {

/// Outer wire tags, so SMR traffic can share a network with other tags.
/// Values live in the central registry (net/tags.hpp); these are local
/// re-exports so call sites keep their historical names.
inline constexpr std::uint8_t kSmrTag = net::tags::kSmr;
inline constexpr std::uint8_t kSmrForwardTag = net::tags::kSmrForward;
inline constexpr std::uint8_t kSmrHintTag = net::tags::kSmrHint;
inline constexpr std::uint8_t kSmrPullTag = net::tags::kSmrPull;
// kSmrCkptTag and kSmrStateTag live in smr/checkpoint.hpp.

/// Pipeline shape: how many instances run in flight, how requests batch,
/// and how long executed instances linger. Plumbed through
/// sim::NodeParams / sim::ClusterConfig so the simulator, the TCP node
/// binary and the benches configure the engine identically.
struct SmrOptions {
  /// In-flight window W: slots [exec, exec + window) may be open at once.
  /// window = 1 reproduces the old serial open-one-slot-at-a-time engine.
  std::uint32_t window = 8;
  /// Batch caps: a slot proposal carries at most this many requests /
  /// encoded bytes. batch_max_commands = 1 reproduces one-command slots.
  std::uint32_t batch_max_commands = 64;
  std::size_t batch_max_bytes = 256 * 1024;
  /// Pacing: with a non-empty but not-full queue, a slot opens after this
  /// long (µs) instead of waiting for the batch to fill.
  Duration batch_timeout = 20'000;
  /// Executed slots keep their instance for this many further slots
  /// before retirement. The instance gets no more traffic:
  /// handle_slot_envelope answers every executed slot with a signed
  /// decided-value hint before it looks for an instance.
  std::uint32_t retire_tail = 2;
  /// While execution trails slots known to exist (opened locally, or
  /// merely observed in peer traffic — the gap may exceed the window),
  /// the replica broadcasts a pull for the oldest unexecuted slot at
  /// this period (µs); peers that already executed answer with signed
  /// decided-value hints for a window's worth of slots (and a certified
  /// checkpoint when the asked slot is below their truncation point).
  Duration catchup_timeout = 250'000;
  /// Cap on requests in the intake queue plus those held for a missing
  /// predecessor seq (local submissions and peer forwards combined);
  /// beyond it, enqueue rejects — backpressure instead of unbounded
  /// memory under a forward flood.
  std::size_t max_pending_requests = 8192;
  /// Hard cap on the number of slots this replica will open (bounds the
  /// simulation; a production deployment would run unbounded).
  std::uint64_t max_slots = 1024;
  /// Checkpoint every this many executed slots (0 disables). A stable
  /// checkpoint (2f + 1 matching votes) truncates the retained slot log
  /// below it, in memory and in the WAL.
  std::uint64_t checkpoint_interval = 16;

  // ---- read fast path (smr/reads.hpp, smr/read_view.hpp) ----
  /// Serve reads from the local ReadView and participate in the lease /
  /// read-index protocols. Off (the default) rejects every submit_read
  /// and sends no read-path traffic, so the write path — and every
  /// pinned digest — is bit-identical to a build without reads.
  bool serve_reads = false;
  /// Use leader leases for linearizable reads; off = read-index only.
  bool read_leases = true;
  /// Leader-side lease validity (µs), clocked from the lease-request
  /// broadcast. Granters promise for lease_duration + lease_skew from
  /// the (strictly later) moment the request reaches them, so a deposed
  /// partitioned leader's validity always runs out before any granter's
  /// promise frees a view-change quorum.
  Duration lease_duration = 2'000'000;
  /// Extra granter-side margin absorbing clock-rate drift across nodes.
  Duration lease_skew = 500'000;
  /// A read that cannot complete within this window (µs) — execution
  /// stalled below its read index, or no attestation quorum — answers
  /// kRejected instead of parking forever.
  Duration read_timeout = 1'000'000;
};

/// One executed request, reported in execution order.
struct ExecutedCommand {
  std::uint64_t slot = 0;   // log slot the request was decided in
  std::uint64_t index = 0;  // global execution index (0-based)
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  Bytes payload;
};

/// One locally executed request as the executed log keeps it: who asked,
/// and what. The client id lets log readers (the dtx coordinator's
/// recovery scan) tell protocol entries from client data.
struct LogEntry {
  std::uint64_t client = 0;
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

  /// Leader-rotation offset for every per-slot instance (see
  /// core::ReplicaConfig::leader_offset). Sharded SMR runs S engines with
  /// offsets 0..S-1 so their view-1 leaders spread across the fleet.
  View leader_offset = 0;

  /// Sends a submission at a non-leader to the engine leader. Empty (the
  /// single-group default): a kSmrForwardTag frame through the host.
  /// shard::ShardedSmr sends its own kShardForwardTag frame, which carries
  /// the ShardMap version. The local enqueue stays either way as the
  /// liveness fallback.
  std::function<void(ReplicaId leader, const Request& request)> forward;

  const crypto::CryptoSuite* suite = nullptr;
  Bytes secret_key;
  crypto::PublicKeyDir public_keys;

  /// Consensus pacing (per-slot synchronizer settings).
  sync::SyncConfig sync;

  /// Optional durability: decides are appended (and fsync'd) here before
  /// client-visible execution, and stable checkpoints truncate it. The
  /// replica recovers from the WAL's contents at construction. Non-owning;
  /// must outlive the replica.
  store::Wal* wal = nullptr;

  /// Called once per executed request, in execution order (after the
  /// host's coarser on_commit). This is where a serving node sends client
  /// replies. Not called for requests replayed from the WAL at recovery.
  std::function<void(const ExecutedCommand&)> on_execute;
};

class SmrReplica : public core::INode {
 public:
  /// The host's `on_commit` is called once per executed request as
  /// (global execution index, payload); `on_decide` is unused at this
  /// layer (per-slot decisions are internal). If `config.wal` holds a
  /// recoverable state (snapshot and/or decide records), it is installed
  /// here — before start() — and throws std::runtime_error when the
  /// snapshot fails certificate verification.
  SmrReplica(SmrConfig config, core::ProtocolHost host);

  /// Demand-driven: nothing happens until a request is submitted or peer
  /// traffic arrives. A replica that recovered a non-empty log announces
  /// itself with one catch-up pull so peers re-seed it with whatever it
  /// missed while down.
  void start() override;

  /// Local convenience client: wraps `command` as a request from client
  /// id `id()` with an auto-incremented seq. Throws on empty/oversized
  /// commands (they could never be batched).
  void submit(Bytes command);

  /// Client-path entry: enqueues (client, seq, payload) for ordering.
  /// Returns false — and enqueues nothing — for duplicates (seq not past
  /// the client's last executed or already pending) and for payloads that
  /// cannot fit a batch. Retries are therefore idempotent.
  bool submit_request(std::uint64_t client, std::uint64_t seq, Bytes payload);

  /// Outcome of a read served off the ordered log.
  struct ReadResult {
    net::ReplyStatus status = net::ReplyStatus::kRejected;
    std::uint64_t slot = 0;   // last-write slot of the key (0: unwritten)
    std::uint64_t index = 0;  // exec-slot watermark the answer reflects
    Bytes value;
  };
  using ReadCallback = std::function<void(const ReadResult&)>;

  /// Read-path entry: answer `key`'s last write at the requested
  /// consistency. kStaleOk answers immediately from the local ReadView;
  /// kSequential waits until exec_slots() >= min_index; kLinearizable
  /// serves locally under a held lease (read index = next_open_) or runs
  /// the quorum read-index protocol. The callback fires exactly once —
  /// possibly synchronously — with kRejected when reads are disabled,
  /// the local view has a state-transfer gap, or the read times out.
  void submit_read(Bytes key, net::ReadConsistency consistency,
                   std::uint64_t min_index, ReadCallback cb);

  void on_message(ReplicaId from, std::uint8_t tag,
                  const Bytes& payload) override;

  // ---- inspection ----
  /// Executed requests, in execution order. Locally-executed only: a
  /// replica that adopted a certified checkpoint has a gap below it.
  [[nodiscard]] const std::vector<LogEntry>& entries() const {
    return exec_log_;
  }
  /// The payloads of entries(), in the same order.
  [[nodiscard]] std::vector<Bytes> log() const;
  /// Decided batch encodings for the RETAINED slots [log_base(), exec);
  /// index i holds slot log_base() + i. Slots below the stable checkpoint
  /// are truncated away.
  [[nodiscard]] const std::vector<Bytes>& slot_log() const { return log_; }
  /// First retained slot (== the stable checkpoint slot).
  [[nodiscard]] std::uint64_t log_base() const { return log_base_; }
  /// Executed slots, counting truncated ones.
  [[nodiscard]] std::uint64_t committed_slots() const { return exec_slots(); }
  [[nodiscard]] std::uint64_t executed_commands() const { return exec_count_; }
  /// Hex chained digest over ALL executed slots (truncation-invariant):
  /// d0 = 0^32, d_{i+1} = SHA-256(d_i ‖ len ‖ batch_i). The log identity
  /// every harness compares across replicas.
  [[nodiscard]] std::string log_digest() const { return to_hex(chain_); }
  /// Slot of the stable (2f+1-certified) checkpoint; 0 before the first.
  [[nodiscard]] std::uint64_t stable_checkpoint() const {
    return stable_slot_;
  }
  /// Executed slots restored from the WAL at construction (checkpoint
  /// base + replayed decide records); 0 when starting fresh.
  [[nodiscard]] std::uint64_t recovered_slots() const {
    return recovered_slots_;
  }
  /// Live per-slot consensus instances (bounded by window + tail).
  [[nodiscard]] std::size_t open_instances() const {
    return instances_.size();
  }
  [[nodiscard]] std::uint64_t next_unopened_slot() const {
    return next_open_;
  }
  /// Highest view in which a slot decided here through consensus (1
  /// before any); new slots start in it.
  [[nodiscard]] View engine_view() const { return engine_view_; }
  /// Where submissions at a non-leader are forwarded.
  [[nodiscard]] ReplicaId engine_leader() const {
    return leader_of(engine_view_ + cfg_.leader_offset, cfg_.n);
  }
  /// Requests queued, held or assigned to an in-flight slot, not yet
  /// executed.
  [[nodiscard]] std::size_t pending_commands() const {
    return queue_.size() + held_.size() + assigned_count_;
  }
  [[nodiscard]] bool has_committed(const Bytes& payload) const;
  /// Last executed seq for `client` (0 if none) — the dedup table.
  [[nodiscard]] std::uint64_t last_executed_seq(std::uint64_t client) const;
  /// Whether (client, seq) is queued, held or assigned to a slot —
  /// i.e. a submit_request(...) == false was a retry of live work, not a
  /// rejection. Serving nodes use this to keep reply routes alive.
  [[nodiscard]] bool has_pending(std::uint64_t client,
                                 std::uint64_t seq) const {
    return pending_keys_.count({client, seq}) != 0;
  }
  /// The KV projection reads are answered from.
  [[nodiscard]] const ReadView& read_view() const { return read_view_; }
  /// Whether this replica currently holds a live, unpoisoned lease.
  [[nodiscard]] bool lease_held() const {
    return lease_granted_epoch_ > lease_expired_epoch_ && !lease_poisoned_;
  }
  /// Whether lease serving has been permanently disabled (a decide at
  /// view > 1, a state transfer, or WAL recovery broke the premise).
  [[nodiscard]] bool lease_poisoned() const { return lease_poisoned_; }
  [[nodiscard]] std::uint64_t reads_served() const { return reads_served_; }
  [[nodiscard]] std::uint64_t reads_rejected() const {
    return reads_rejected_;
  }
  /// Linearizable reads answered under the lease (no quorum round-trip).
  [[nodiscard]] std::uint64_t lease_reads() const { return lease_reads_; }

 private:
  struct Buffered {
    ReplicaId from;
    std::uint8_t tag;
    Bytes payload;
  };

  /// Executed slots: the retained log plus everything truncated below it.
  [[nodiscard]] std::uint64_t exec_slots() const {
    return log_base_ + log_.size();
  }

  [[nodiscard]] bool enqueue(Request request);
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
  void forward_to_leader(const Request& request);
  /// A slot decided in `view`: grow the engine view and, when that moves
  /// the leader elsewhere, forward the queue to the new one.
  void raise_engine_view(View view);
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
  void handle_forward(ReplicaId from, const Bytes& payload);
  void handle_hint(ReplicaId from, const Bytes& payload);
  void handle_pull(ReplicaId from, const Bytes& payload);
  void handle_ckpt_vote(ReplicaId from, const Bytes& payload);
  void handle_state(ReplicaId from, const Bytes& payload);
  void handle_lease(ReplicaId from, const Bytes& payload);
  void handle_read_index(ReplicaId from, const Bytes& payload);
  void send_hint(ReplicaId to, std::uint64_t slot);
  void send_state(ReplicaId to);
  void arm_catchup();
  /// `view` is the consensus view the slot decided in; 0 when unknown
  /// (hint adoption, WAL replay) — anything but view 1 poisons a lease.
  void on_slot_decided(std::uint64_t slot, const Bytes& value, View view);
  void execute_ready_slots();

  // ---- read fast path ----
  [[nodiscard]] ReplicaId lease_leader() const {
    return leader_of(1 + cfg_.leader_offset, cfg_.n);
  }
  [[nodiscard]] bool is_lease_leader() const {
    return lease_leader() == cfg_.id;
  }
  /// Answer `cb` from the local ReadView right now.
  void answer_read(const Bytes& key, const ReadCallback& cb);
  void reject_read(const ReadCallback& cb);
  /// Park a read until exec_slots() >= wait_slots (answers immediately
  /// when already satisfied); a read_timeout timer rejects stuck parks.
  void park_read(Bytes key, std::uint64_t wait_slots, ReadCallback cb);
  void drain_parked_reads();
  /// Broadcast a lease request for the next epoch and arm validity +
  /// renewal timers (leader only; re-arms itself at duration/2).
  void request_lease();
  /// Start the quorum read-index protocol for one read.
  void begin_read_index(Bytes key, ReadCallback cb);
  void maybe_complete_read_index(std::uint64_t rid);
  void retire_executed_slots();
  void collect_retired();
  /// Upper bound (exclusive) on slots that may be open right now.
  [[nodiscard]] std::uint64_t open_limit() const;
  /// Horizon for buffering/hint state: slots beyond it are dropped.
  [[nodiscard]] std::uint64_t horizon() const;

  // ---- checkpoints / durability ----
  /// Deterministic summary of the executed prefix right now.
  [[nodiscard]] CheckpointState snapshot_state() const;
  /// At a checkpoint-interval boundary: snapshot, sign, broadcast a vote.
  void maybe_checkpoint();
  /// Books a verified vote; caller already checked signer and signature.
  void record_ckpt_vote(std::uint64_t slot, const Bytes& digest,
                        ReplicaId signer, Bytes signature);
  /// Promotes `slot` to stable if our own state there has 2f+1 votes.
  void try_stabilize(std::uint64_t slot);
  /// Installs a stable checkpoint this replica executed through: persists
  /// it (snapshot + retained tail) and truncates the log below it.
  void stabilize(CheckpointState state, CheckpointCert cert);
  /// Adopts a VERIFIED checkpoint ahead of our execution (state
  /// transfer): replaces the dedup table, jumps the log base, requeues
  /// own still-unexecuted assignments from skipped slots.
  void install_checkpoint(CheckpointState state, CheckpointCert cert);
  /// Restores state from cfg_.wal (constructor path).
  void recover_from_wal();
  [[nodiscard]] static Bytes encode_decide_record(std::uint64_t slot,
                                                  const Bytes& value);

  SmrConfig cfg_;
  core::ProtocolHost host_;
  BatchLimits limits_;

  // -- executed state --
  /// Decided batch per RETAINED slot: log_[i] is slot log_base_ + i.
  std::vector<Bytes> log_;
  std::uint64_t log_base_ = 0;        // slots below are truncated
  Bytes chain_;                        // chained digest at exec_slots()
  std::uint64_t exec_count_ = 0;       // commands executed (incl. recovery)
  std::vector<LogEntry> exec_log_;     // locally executed, in order
  std::map<std::uint64_t, std::uint64_t> last_exec_;  // client → seq

  // -- checkpoints --
  /// Own state snapshots at interval boundaries, awaiting 2f+1 votes:
  /// slot → (state, state digest).
  std::map<std::uint64_t, std::pair<CheckpointState, Bytes>> pending_states_;
  /// Verified votes per boundary slot; few distinct digests (linear scan).
  struct CkptTally {
    Bytes digest;
    std::map<ReplicaId, Bytes> sigs;  // signer → signature
  };
  std::map<std::uint64_t, std::vector<CkptTally>> ckpt_votes_;
  std::uint64_t stable_slot_ = 0;
  std::optional<std::pair<CheckpointState, CheckpointCert>> stable_;

  // -- recovery --
  bool recovering_ = false;       // replaying the WAL: no sends, no appends
  std::uint64_t recovered_slots_ = 0;

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
  std::set<std::pair<std::uint64_t, std::uint64_t>> pending_keys_;
  std::map<std::uint64_t, Batch> assigned_;  // slot → this replica's batch
  std::size_t assigned_count_ = 0;
  std::uint64_t local_seq_ = 0;
  bool pace_armed_ = false;
  bool catchup_armed_ = false;
  bool started_ = false;
  /// Exclusive upper bound on slots known to exist somewhere in the
  /// cluster (from peer traffic and hints). While exec_slots() is below
  /// it, this replica is behind and the catch-up pull keeps running —
  /// including when the gap is wider than the open window.
  std::uint64_t max_seen_slot_ = 0;

  // -- in-flight slots --
  std::uint64_t next_open_ = 0;  // lowest never-opened slot
  View engine_view_ = 1;         // see engine_view()
  std::map<std::uint64_t, std::unique_ptr<core::Replica>> instances_;
  /// Retirement is deferred: an instance may be retired from inside its
  /// own decision callback, so it parks here and is destroyed at the next
  /// top-level event (message or timer) when no instance frame is live.
  std::vector<std::unique_ptr<core::Replica>> retired_;
  std::map<std::uint64_t, Bytes> decided_out_of_order_;
  std::map<std::uint64_t, std::vector<Buffered>> buffered_;
  // slot → hinted values with their vouching peers (few distinct values,
  // linear scan); f+1 distinct SIGNATURE-VERIFIED vouchers adopt.
  struct HintEntry {
    Bytes value;
    std::set<ReplicaId> vouchers;
  };
  std::map<std::uint64_t, std::vector<HintEntry>> hints_;
  /// Memoized signed hint wire encodings per retained slot: handle_pull
  /// answers a window's worth of slots per straggler, and several
  /// stragglers ask for the same stretch — encode + sign once, reuse the
  /// buffer. Entries below the stable checkpoint are erased with the log.
  std::map<std::uint64_t, Bytes> hint_wire_;

  // -- read fast path --
  ReadView read_view_;
  /// True once the executed prefix was jumped over (state transfer /
  /// WAL snapshot recovery): the ReadView is missing the skipped writes,
  /// so every read is rejected rather than answered from a partial view.
  bool read_view_gap_ = false;
  std::uint64_t reads_served_ = 0;
  std::uint64_t reads_rejected_ = 0;
  std::uint64_t lease_reads_ = 0;
  /// Reads waiting for execution to reach their read index, keyed by the
  /// exec-slot count that releases them.
  struct ParkedRead {
    std::uint64_t token = 0;  // timeout identity
    Bytes key;
    ReadCallback cb;
  };
  std::multimap<std::uint64_t, ParkedRead> parked_reads_;
  std::uint64_t next_read_token_ = 0;
  /// In-flight quorum read-index rounds: rid → collected watermarks.
  struct ReadIndexWait {
    Bytes key;
    ReadCallback cb;
    std::map<ReplicaId, std::uint64_t> marks;  // signer → watermark
  };
  std::map<std::uint64_t, ReadIndexWait> read_index_waits_;
  std::uint64_t next_rid_ = 0;
  // Leader-side lease state. The lease of epoch e is held while
  // lease_granted_epoch_ >= e > lease_expired_epoch_; validity clocks
  // from the request broadcast, so it is strictly shorter than any
  // granter's promise.
  std::uint64_t lease_epoch_ = 0;          // latest requested epoch
  std::uint64_t lease_granted_epoch_ = 0;  // latest epoch with 2f+1 grants
  std::uint64_t lease_expired_epoch_ = 0;  // latest epoch timed out
  bool lease_poisoned_ = false;
  std::set<ReplicaId> lease_grants_;  // granters of lease_epoch_
  // Granter-side promise state: while promise_live_ > 0 this replica
  // suppresses its own outgoing view-change traffic (kNewLeader/kWish)
  // for this engine — with 2f+1 promises live no view-change quorum can
  // form, which is exactly what makes the leader's lease sound.
  std::uint64_t promise_live_ = 0;
  std::uint64_t last_granted_epoch_ = 0;
  /// View-change frames generated while promises were live. The
  /// synchronizer broadcasts each wish exactly once (its view timer does
  /// not re-arm), so a suppressed frame must be DEFERRED, not dropped —
  /// it is flushed when the last promise expires, which is what lets a
  /// view change eventually depose a dead lease holder.
  struct DeferredFrame {
    ReplicaId to = 0;  // 0 = broadcast
    Bytes frame;
  };
  std::vector<DeferredFrame> deferred_vc_;
};

}  // namespace probft::smr
