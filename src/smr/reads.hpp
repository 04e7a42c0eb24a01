// The read fast path of one SMR engine: the ReadView it answers from, the
// lease and read-index messages, and smr::ReadPath, which runs them. The
// safety rules are spelled out in docs/ARCHITECTURE.md ("Read fast path").
//
// Every executed command is projected onto the ReadView as `key '=' value`
// (a payload without '=' is its own key and value, so opaque workloads
// keep their digests and placement). Per key the view keeps the last write
// and the (slot, exec-index) it landed at, plus an exec-slot watermark —
// O(1) per executed command, O(keys) memory.
//
// Stale-ok reads answer from the view at once, sequential ones once the
// watermark reaches the client's floor. A linearizable read needs proof
// that the watermark covers every write decided before it was issued:
//
//  - Leader lease (tag kSmrLease). Each follower grants the view-1 leader
//    a signed LeaseGrant for a LeaseRequest{epoch}: a PROMISE not to help
//    depose it for lease_duration + lease_skew. Holding 2f grants, the
//    leader answers once it executed every slot it opened, since every
//    decided write rode one of them. A decide past view 1 proves that
//    premise wrong and poisons the lease for good.
//  - Quorum read-index (tag kSmrReadIndex). 2f+1 signed exec watermarks
//    (self included) bound the read index by their maximum: at least f+1
//    correct replicas executed that far. The reader waits until its own
//    execution reaches it.
//
// All codecs are strict (version byte, truncation/trailing/oversize
// checks throw CodecError) — these frames arrive from the network and
// must survive arbitrary bytes. Signatures are domain-separated from
// every other signing surface in the system.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "core/protocol_host.hpp"
#include "crypto/suite.hpp"
#include "net/client.hpp"
#include "net/tags.hpp"

namespace probft::smr {

/// Key under which a payload is written: the bytes before the first '=',
/// or the whole payload when it contains none.
[[nodiscard]] ByteSpan read_view_key(ByteSpan payload);

/// Value a payload writes: the bytes after the first '=', or the whole
/// payload when it contains none.
[[nodiscard]] ByteSpan read_view_value(ByteSpan payload);

struct ReadViewEntry {
  Bytes value;
  std::uint64_t slot = 0;   // log slot the write was decided in
  std::uint64_t index = 0;  // global exec index of the write
};

class ReadView {
 public:
  /// Project one executed command onto the view. `slot`/`index` are the
  /// command's log slot and global execution index.
  void apply(std::uint64_t slot, std::uint64_t index, const Bytes& payload);

  /// Advance the exec-slot watermark (= number of contiguously executed
  /// slots). Called after each slot finishes executing.
  void set_watermark(std::uint64_t exec_slots);

  /// Exec-slot watermark: every slot below it has been executed here.
  [[nodiscard]] std::uint64_t watermark() const { return watermark_; }

  /// Last write to `key`, or nullptr if the key was never written.
  [[nodiscard]] const ReadViewEntry* lookup(ByteSpan key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::string, ReadViewEntry> entries_;
  std::uint64_t watermark_ = 0;
};

/// Wire tags for the read fast path; values live in the central registry
/// (net/tags.hpp), these are local re-exports.
inline constexpr std::uint8_t kSmrLeaseTag = net::tags::kSmrLease;
inline constexpr std::uint8_t kSmrReadIndexTag = net::tags::kSmrReadIndex;

inline constexpr std::uint8_t kReadWireVersion = 1;

/// Message kinds inside the kSmrLease / kSmrReadIndex envelopes; the
/// second byte of every message (after the version byte).
inline constexpr std::uint8_t kLeaseRequestKind = 0;
inline constexpr std::uint8_t kLeaseGrantKind = 1;
inline constexpr std::uint8_t kReadIndexRequestKind = 2;
inline constexpr std::uint8_t kReadIndexAttestKind = 3;

/// Cap on signature bytes accepted off the wire (ed25519 uses 64).
inline constexpr std::size_t kMaxReadSigBytes = 256;

/// A read that cannot complete within this window (µs) — execution
/// stalled below its read index, or no attestation quorum — answers
/// kRejected instead of parking forever.
inline constexpr Duration kReadTimeout = 1'000'000;

/// Kind byte of a versioned read-path message, without consuming it.
/// Throws CodecError on truncation or a version this build does not
/// speak, so dispatchers fail closed.
[[nodiscard]] std::uint8_t peek_read_msg_kind(ByteSpan data);

/// Domain-separated signing bytes for a lease grant: the granter attests
/// "I promise not to depose `leader` for lease epoch `epoch`".
[[nodiscard]] Bytes lease_signing_bytes(std::uint64_t epoch, ReplicaId leader,
                                        ReplicaId granter);

/// Domain-separated signing bytes for a read-index attestation, bound to
/// the requester and rid so an attestation cannot be replayed into a
/// different read.
[[nodiscard]] Bytes read_index_signing_bytes(ReplicaId requester,
                                             std::uint64_t rid,
                                             std::uint64_t watermark);

/// Leader → all: ask for (or renew) the lease with this epoch.
struct LeaseRequest {
  std::uint64_t epoch = 0;
  ReplicaId leader = 0;

  [[nodiscard]] Bytes encode() const;
  static LeaseRequest decode(ByteSpan data);

  bool operator==(const LeaseRequest& other) const = default;
};

/// Granter → leader: signed promise for one lease epoch.
struct LeaseGrant {
  std::uint64_t epoch = 0;
  ReplicaId leader = 0;
  ReplicaId granter = 0;
  Bytes signature;  // over lease_signing_bytes(epoch, leader, granter)

  [[nodiscard]] Bytes encode() const;
  static LeaseGrant decode(ByteSpan data);

  [[nodiscard]] bool verify(const crypto::CryptoSuite& suite,
                            const crypto::PublicKeyDir& keys,
                            std::uint32_t n) const;

  bool operator==(const LeaseGrant& other) const = default;
};

/// Requester → all: attest your exec-slot watermark for read `rid`.
struct ReadIndexRequest {
  std::uint64_t rid = 0;
  ReplicaId requester = 0;

  [[nodiscard]] Bytes encode() const;
  static ReadIndexRequest decode(ByteSpan data);

  bool operator==(const ReadIndexRequest& other) const = default;
};

/// Peer → requester: signed exec-slot watermark, bound to (requester,
/// rid) so it cannot be replayed into another read.
struct ReadIndexAttest {
  std::uint64_t rid = 0;
  ReplicaId requester = 0;
  std::uint64_t watermark = 0;  // exec-slot count at the signer
  ReplicaId signer = 0;
  Bytes signature;  // over read_index_signing_bytes(requester, rid, mark)

  [[nodiscard]] Bytes encode() const;
  static ReadIndexAttest decode(ByteSpan data);

  [[nodiscard]] bool verify(const crypto::CryptoSuite& suite,
                            const crypto::PublicKeyDir& keys,
                            std::uint32_t n) const;

  bool operator==(const ReadIndexAttest& other) const = default;
};

struct SmrConfig;

/// Outcome of a read served off the ordered log.
struct ReadResult {
  net::ReplyStatus status = net::ReplyStatus::kRejected;
  std::uint64_t slot = 0;   // last-write slot of the key (0: unwritten)
  std::uint64_t index = 0;  // exec-slot watermark the answer reflects
  Bytes value;
};
using ReadCallback = std::function<void(const ReadResult&)>;

/// Everything an SmrReplica does for reads: the ReadView, parked reads
/// and their timeouts, read-index rounds, both sides of the lease, the
/// view-change frames held back under a promise, and the read counters.
/// With `serve_reads` off it rejects every read and sends nothing. The
/// replica drives it through the hooks below and asks back only whether
/// to hold an outgoing view-change frame (hold_back).
class ReadPath {
 public:
  /// `cfg` and `host` are the owning replica's and must outlive this;
  /// `pull` starts the replica's catch-up pull when a read parks on
  /// slots it has not executed.
  ReadPath(const SmrConfig& cfg, const core::ProtocolHost& host,
           std::function<void()> pull);

  /// The lease leader starts requesting leases; renewals re-arm.
  void start() { request_lease(); }

  /// Answers `key`'s last write at the requested consistency; the
  /// callback fires exactly once, possibly synchronously. kStaleOk
  /// answers from the local view; kSequential waits until min_index
  /// slots executed; kLinearizable waits for `lease_index` (every slot
  /// opened so far) under a held lease, or runs a read-index round.
  /// kRejected when reads are off, the view has a gap, or it times out.
  void submit(Bytes key, net::ReadConsistency consistency,
              std::uint64_t min_index, std::uint64_t lease_index,
              ReadCallback cb);

  // ---- hooks ----
  /// One command executed at (slot, global exec index).
  void apply(std::uint64_t slot, std::uint64_t index, const Bytes& payload) {
    read_view_.apply(slot, index, payload);
  }
  /// Slots [0, exec_slots) have executed.
  void set_executed(std::uint64_t exec_slots) {
    read_view_.set_watermark(exec_slots);
  }
  /// Execution advanced: answers the parked reads it reached.
  void drain_parked_reads();
  /// A slot decided in `view`; 0 when unknown (hint adoption). A view
  /// past 1 poisons the lease everywhere; an unknown one only at the
  /// lease leader (granters routinely catch up from hints, a leader
  /// with a healthy lease never needs to).
  void on_decide(View view);
  /// The executed prefix jumped to `exec_slots` (state transfer, WAL
  /// snapshot): the view misses the skipped writes, so every waiting
  /// read is rejected and no read is answered from here on; slots this
  /// replica never drove may have decided past view 1, so the lease is
  /// poisoned too.
  void on_prefix_jump(std::uint64_t exec_slots);
  /// Decides were replayed from a WAL. They carry no view, so the lease
  /// is poisoned (serving and granting).
  void on_replay();
  /// A kSmrLeaseTag / kSmrReadIndexTag frame; throw CodecError.
  void on_lease(ReplicaId from, const Bytes& payload);
  void on_read_index(ReplicaId from, const Bytes& payload);
  /// Whether an outgoing slot frame must wait: a kNewLeader/kWish sent
  /// under a live promise is moved out of `frame` and sent when the last
  /// promise expires.
  [[nodiscard]] bool hold_back(ReplicaId to, std::uint8_t tag, Bytes& frame);

  // ---- inspection ----
  /// Whether this replica currently holds a live, unpoisoned lease.
  [[nodiscard]] bool lease_held() const {
    return lease_granted_epoch_ > lease_expired_epoch_ && !lease_poisoned_;
  }
  /// Whether lease serving and granting stopped for good.
  [[nodiscard]] bool lease_poisoned() const { return lease_poisoned_; }
  [[nodiscard]] std::uint64_t reads_served() const { return reads_served_; }
  [[nodiscard]] std::uint64_t reads_rejected() const {
    return reads_rejected_;
  }
  /// Linearizable reads answered under the lease (no quorum round-trip).
  [[nodiscard]] std::uint64_t lease_reads() const { return lease_reads_; }

 private:
  [[nodiscard]] std::uint64_t exec_slots() const {
    return read_view_.watermark();
  }
  /// The engine's fixed view-1 leader: the only possible lease holder.
  [[nodiscard]] ReplicaId lease_leader() const;
  void answer_read(const Bytes& key, const ReadCallback& cb);
  void reject_read(const ReadCallback& cb);
  /// Park a read until exec_slots() >= wait_slots (answers immediately
  /// when already satisfied); a kReadTimeout timer rejects stuck parks.
  void park_read(Bytes key, std::uint64_t wait_slots, ReadCallback cb);
  /// Broadcast a lease request for the next epoch and arm validity +
  /// renewal timers (leader only; re-arms itself at duration/2).
  void request_lease();
  void begin_read_index(Bytes key, ReadCallback cb);
  void maybe_complete_read_index(std::uint64_t rid);

  const SmrConfig& cfg_;
  const core::ProtocolHost& host_;
  std::function<void()> pull_;

  /// The KV projection reads are answered from; its watermark is the
  /// replica's executed slot count.
  ReadView read_view_;
  /// True once the executed prefix was jumped over: the view misses the
  /// skipped writes, so every read is rejected.
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
  // holds back its own outgoing view-change traffic (kNewLeader/kWish)
  // for this engine — with 2f+1 promises live no view-change quorum can
  // form, which is exactly what makes the leader's lease sound.
  std::uint64_t promise_live_ = 0;
  std::uint64_t last_granted_epoch_ = 0;
  /// View-change frames generated while promises were live. A NewLeader
  /// is sent once per view, so a held frame must be DEFERRED, not
  /// dropped — it is flushed when the last promise expires, which is
  /// what lets a view change eventually depose a dead lease holder.
  struct DeferredFrame {
    ReplicaId to = 0;  // 0 = broadcast
    Bytes frame;
  };
  std::vector<DeferredFrame> deferred_vc_;
};

}  // namespace probft::smr
