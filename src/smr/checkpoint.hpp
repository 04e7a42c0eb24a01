// Byzantine-certified checkpoints, the catch-up proofs built on them, and
// smr::CatchUp, which runs certified catch-up and durability for one SMR
// engine (store/wal.hpp holds the log format).
//
// Catch-up never trusts the channel: over real sockets one Byzantine peer
// that forges sender ids could otherwise forge f + 1 vouchers for an
// arbitrary undecided value. Every proof is signed instead:
//
//  - A `CheckpointState` is the deterministic digest-able summary of an
//    executed prefix: next-exec slot, executed-command count, the chained
//    log digest at that slot, and the per-client dedup table. Every correct
//    replica that executed the same prefix produces bit-identical state.
//  - Late traffic for an executed slot is answered with a decided-value
//    hint SIGNED over (slot, value digest); a replica adopts a hinted
//    value once f + 1 hints verify against f + 1 distinct replicas' public
//    keys (at least one correct), so vouchers cannot be forged by a peer
//    that spoofs sender ids.
//  - Every `checkpoint_interval` executed slots the replica broadcasts a
//    signed `CheckpointVote` over its state digest; 2f + 1 matching votes
//    form a `CheckpointCert` — at least f + 1 correct replicas attest the
//    prefix, so a verified cert is adoptable by anyone, from anyone. The
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
// The chained log digest (d0 = 0^32, d_{i+1} = SHA-256(d_i ‖ len ‖ batch_i))
// replaces the flat whole-log hash so the digest survives log truncation:
// a replica that discarded slots below its stable checkpoint keeps hashing
// forward from the checkpoint's digest and stays comparable with peers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "core/protocol_host.hpp"
#include "crypto/suite.hpp"
#include "net/tags.hpp"
#include "smr/batch.hpp"

namespace probft::smr {

/// Wire tags for the certified catch-up path; values live in the central
/// registry (net/tags.hpp), these are local re-exports.
inline constexpr std::uint8_t kSmrHintTag = net::tags::kSmrHint;
inline constexpr std::uint8_t kSmrPullTag = net::tags::kSmrPull;
inline constexpr std::uint8_t kSmrCkptTag = net::tags::kSmrCkpt;
inline constexpr std::uint8_t kSmrStateTag = net::tags::kSmrState;

/// The chain's genesis digest: 32 zero bytes.
[[nodiscard]] Bytes zero_digest();

/// One chain step: SHA-256(prev ‖ u32 len ‖ value).
[[nodiscard]] Bytes chain_digest(const Bytes& prev, const Bytes& value);

/// Deterministic summary of an executed prefix. Two correct replicas that
/// executed the same slots produce identical encodings (last_exec is kept
/// sorted by client id), hence identical digests.
struct CheckpointState {
  std::uint64_t slot = 0;        // next slot to execute (= slots executed)
  std::uint64_t exec_count = 0;  // commands executed so far
  Bytes log_digest;              // 32-byte chained digest at `slot`
  /// Per-client last-executed seq, ascending by client id.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> last_exec;

  void encode(Writer& w) const;
  static CheckpointState decode(Reader& r);
  /// SHA-256 over the encoding — what votes and certs sign.
  [[nodiscard]] Bytes digest() const;
};

/// The group field of the SMR signing strings: the u64 after the domain
/// of checkpoint votes and hints, the Wish tag, and the first half of
/// every slot's (group, slot) instance tag. The service orders one log,
/// so the field is the constant 0; it stays in the signed bytes so
/// signatures, WALs and pinned transcripts keep their format.
inline constexpr std::uint64_t kGroupId = 0;

/// Domain-separated signing bytes for a checkpoint vote.
[[nodiscard]] Bytes checkpoint_signing_bytes(std::uint64_t slot,
                                             const Bytes& state_digest);

/// Domain-separated signing bytes for a decided-value hint: the signer
/// attests "slot `slot` decided the batch hashing to `value_digest`".
[[nodiscard]] Bytes hint_signing_bytes(std::uint64_t slot,
                                       const Bytes& value_digest);

struct CheckpointVote {
  std::uint64_t slot = 0;
  Bytes state_digest;
  ReplicaId signer = 0;
  Bytes signature;

  void encode(Writer& w) const;
  static CheckpointVote decode(Reader& r);
};

/// 2f+1 matching votes over one state digest.
struct CheckpointCert {
  std::uint64_t slot = 0;
  Bytes state_digest;
  /// (signer, signature), ascending by signer, no duplicates.
  std::vector<std::pair<ReplicaId, Bytes>> signatures;

  void encode(Writer& w) const;
  static CheckpointCert decode(Reader& r);
};

/// True iff `cert` carries >= 2f+1 signatures from distinct in-range
/// signers, each valid over checkpoint_signing_bytes(slot, digest).
[[nodiscard]] bool verify_checkpoint_cert(const CheckpointCert& cert,
                                          std::uint32_t n, std::uint32_t f,
                                          const crypto::CryptoSuite& suite,
                                          const crypto::PublicKeyDir& keys);

struct SmrConfig;

/// Certified catch-up and durability of one SMR engine (see the top of
/// this file): the retained decided log and its chained digest, signed
/// hints and pulls, checkpoint votes, the stable checkpoint, truncation,
/// certified state transfer and the WAL. The replica drives it through
/// the hooks below; it calls back through `adopt` and `jump`.
class CatchUp {
 public:
  /// f + 1 signed hints agree that `slot` decided `value`.
  using AdoptFn = std::function<void(std::uint64_t slot, const Bytes& value)>;
  /// The executed prefix jumped to a verified `state` (state transfer or
  /// a WAL snapshot). The log, its digest and the stable checkpoint have
  /// moved already; the replica's own state has not.
  using JumpFn = std::function<void(const CheckpointState& state)>;

  /// `cfg` and `host` are the owning replica's and must outlive this.
  CatchUp(const SmrConfig& cfg, const core::ProtocolHost& host,
          AdoptFn adopt, JumpFn jump);
  CatchUp(const CatchUp&) = delete;  // the pull timer captures `this`
  CatchUp& operator=(const CatchUp&) = delete;

  // ---- hooks ----
  /// Restores cfg.wal, if any: installs its snapshot once its cert
  /// verifies (throws std::runtime_error otherwise), then hands `replay`
  /// each decide record that continues the log. Sends and writes nothing.
  void recover(const std::function<void(std::uint64_t, Bytes)>& replay);
  /// After a non-empty recovery, one pull asks the peers for whatever
  /// this replica missed while down.
  void start() {
    if (recovered_slots_ > 0) broadcast_pull();
  }
  /// Durability point: the decide of `slot` reaches the WAL (and disk,
  /// when fsync is on) before any client-visible execution effect.
  void persist(std::uint64_t slot, const Bytes& value);
  /// Slot exec_slots() executed `value`, leaving `exec_count` commands
  /// executed and the dedup table `last_exec`; votes at a boundary.
  void on_executed(Bytes value, std::uint64_t exec_count,
                   const std::map<std::uint64_t, std::uint64_t>& last_exec);
  /// A consensus frame (inner `tag`) for `slot` arrived. True when the
  /// slot executed here: the frame is spent, and a Wish or NewLeader (the
  /// sender is stuck) draws a hint or our state; a late Commit does not.
  bool on_slot_frame(ReplicaId from, std::uint64_t slot, std::uint8_t tag);
  /// Slots below `opened` exist: the pull runs while execution trails
  /// any slot known to exist.
  void pull_while_behind(std::uint64_t opened) {
    max_seen_slot_ = std::max(max_seen_slot_, opened);
    arm_pull();
  }
  /// A kSmrHintTag / kSmrPullTag / kSmrCkptTag / kSmrStateTag frame
  /// (other tags are ignored); throws CodecError.
  void on_message(ReplicaId from, std::uint8_t tag, const Bytes& payload);

  // ---- inspection ----
  /// Executed slots, counting truncated ones.
  [[nodiscard]] std::uint64_t exec_slots() const {
    return log_base_ + log_.size();
  }
  /// Decided batches of the retained slots: log()[i] is slot log_base() + i.
  [[nodiscard]] const std::vector<Bytes>& log() const { return log_; }
  /// First retained slot (== the stable checkpoint slot).
  [[nodiscard]] std::uint64_t log_base() const { return log_base_; }
  /// Chained digest over every executed slot.
  [[nodiscard]] const Bytes& chain() const { return chain_; }
  [[nodiscard]] std::uint64_t stable_checkpoint() const {
    return stable_slot_;
  }
  /// Replaying the WAL: nothing is sent, appended or reported.
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] std::uint64_t recovered_slots() const {
    return recovered_slots_;
  }
  /// Hints and buffered slot traffic at or past this slot are dropped:
  /// two windows above this replica's execution point.
  [[nodiscard]] std::uint64_t horizon() const;

 private:
  /// Per slot, a bounded set of distinct values, each with its distinct
  /// signers' signatures: the tally behind hint adoption (f + 1 signers)
  /// and checkpoint certificates (2f + 1). The caps keep Byzantine votes
  /// from growing it; callers verify each signature before booking it.
  struct SignedTally {
    struct Entry {
      Bytes value;
      std::map<ReplicaId, Bytes> sigs;  // signer → signature
    };
    std::size_t max_values;  // per slot; values are few (linear scan)
    std::size_t max_slots;
    std::map<std::uint64_t, std::vector<Entry>> slots;

    /// Books `signer`'s signature on `value` for `slot` (a signer's first
    /// signature stands) and returns the value's entry; nullptr when a cap
    /// dropped it. A full table evicts its lowest slot for a higher one.
    const Entry* add(std::uint64_t slot, const Bytes& value, ReplicaId signer,
                     Bytes signature);
    void erase_below(std::uint64_t slot) {
      slots.erase(slots.begin(), slots.lower_bound(slot));
    }
  };

  void handle_hint(ReplicaId from, const Bytes& payload);
  void handle_pull(ReplicaId from, const Bytes& payload);
  void handle_ckpt_vote(ReplicaId from, const Bytes& payload);
  void handle_state(const Bytes& payload);
  void send_hint(ReplicaId to, std::uint64_t slot);
  void send_state(ReplicaId to);
  void broadcast_pull();
  /// Arms the pull timer unless it runs or this replica is not behind.
  void arm_pull();
  /// Promotes `slot` to stable if `votes` (just booked there) are 2f+1
  /// on our own state's digest.
  void try_stabilize(std::uint64_t slot, const SignedTally::Entry* votes);
  /// Persists a stable checkpoint with the retained log above it, then
  /// truncates the log below it.
  void set_stable(const CheckpointState& state, const CheckpointCert& cert);
  /// Adopts a VERIFIED checkpoint ahead of our execution.
  void install(const CheckpointState& state, const CheckpointCert& cert);
  [[nodiscard]] bool certifies(const CheckpointState& state,
                               const CheckpointCert& cert) const;

  const SmrConfig& cfg_;
  const core::ProtocolHost& host_;
  AdoptFn adopt_;
  JumpFn jump_;
  BatchLimits limits_;

  std::vector<Bytes> log_;      // log_[i] is slot log_base_ + i
  std::uint64_t log_base_ = 0;  // slots below are truncated
  Bytes chain_;                 // chained digest at exec_slots()
  bool recovering_ = false;
  std::uint64_t recovered_slots_ = 0;

  /// Own state snapshots at boundaries, awaiting 2f+1 votes: slot →
  /// (state, state digest).
  std::map<std::uint64_t, std::pair<CheckpointState, Bytes>> pending_states_;
  SignedTally votes_;  // boundary slot → state digest → signers
  std::uint64_t stable_slot_ = 0;
  Bytes stable_;  // the stable (state, cert) as encoded; empty before one

  SignedTally hints_;  // slot → hinted value → vouchers; f + 1 adopt
  /// Memoized signed hint wire encodings per retained slot: handle_pull
  /// answers a window's worth of slots per straggler, and several
  /// stragglers ask for the same stretch — encode + sign once, reuse the
  /// buffer. Entries below the stable checkpoint are erased with the log.
  std::map<std::uint64_t, Bytes> hint_wire_;
  bool pull_armed_ = false;
  /// Exclusive upper bound on slots known to exist: opened here, or seen
  /// in peer traffic, hints and checkpoint votes. While exec_slots() is
  /// below it this replica is behind and the pull keeps running, even
  /// when the gap is wider than the open window.
  std::uint64_t max_seen_slot_ = 0;
};

}  // namespace probft::smr
