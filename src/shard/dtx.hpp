// Cross-shard transactions: a log-driven dtx coordinator in two phases.
//
// A dtx writes a set of keys that placement scatters across several
// consensus groups, atomically: once the transaction is in the
// coordinator group's log, every owning group's log commits its APPLY
// entry. There is no coordinator *process* to lose — the coordinator
// role is a SHARD (a replicated group), and every replica runs the same
// deterministic tracker off its own execution stream, so progress
// survives any f crash faults including kill -9 of the replica a client
// happened to talk to.
//
// Phases, both of them ordinary log entries under synthetic per-tx
// client ids (the engine's per-client exactly-once dedup turns N
// replicas redundantly driving the same transition into one committed
// entry):
//
//   BEGIN   (coordinator shard, coord-client seq 1): tx id, origin
//           client/seq, the full key set. Once it executes the
//           transaction is durable and decided: no participant can
//           refuse it.
//   APPLY   (each participant shard, part-client seq 1): the tx id and
//           that shard's key slice, the actual write. Every replica
//           submits it once BEGIN has executed; the transaction
//           completes when every participant's APPLY has executed.
//
// A D-participant transaction therefore commits 1 + D entries. This is
// Calvin's argument (Thomson et al., SIGMOD 2012): over a deterministic
// replicated log with no participant that can vote no, a durable intent
// plus idempotent applies is the whole protocol.
//
// An entry counts only under the synthetic client that owns its phase
// (is_bookkeeping): any client can get the same bytes into a log, and
// there they are ordinary data, answered like any other request. The
// synthetic ids carry kReservedClientBit, which ShardedSmr::
// submit_request refuses, so no client can submit under them.
//
// Idempotent recovery: a restarted replica replays its per-shard WALs
// (rebuilding each group's log), then rebuild_from_logs() re-reads every
// executed entry to reconstruct in-flight tx state and resumes driving.
// Re-submitted transitions are deduplicated by the engine, so replay is
// harmless by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "shard/sharded_smr.hpp"
#include "sync/synchronizer.hpp"

namespace probft::shard {

class DtxCoordinator {
 public:
  /// Fired exactly once per transaction on THIS replica when it has
  /// committed (every participant's APPLY executed). origin_* identify
  /// the client request that started it — the serving node uses them to
  /// send the client reply.
  using OnComplete =
      std::function<void(std::uint64_t txid, std::uint64_t origin_client,
                         std::uint64_t origin_seq)>;

  DtxCoordinator(ShardedSmr& service,
                 sync::Synchronizer::TimerSetter set_timer);

  /// A client payload is a dtx request iff it starts with "DTX1".
  [[nodiscard]] static bool is_dtx_request(const Bytes& payload);
  /// The client payload for a transaction over `keys`: "DTX1" ‖ the keys
  /// as a u32-counted vector of length-prefixed byte strings.
  [[nodiscard]] static Bytes encode_request(const std::vector<Bytes>& keys);
  /// Whether an executed entry of `shard` is dtx bookkeeping: a BEGIN or
  /// APPLY payload under the synthetic client that owns its phase
  /// (coord_client for BEGIN, part_client for APPLY). The tracker applies
  /// only such entries, and the node sends no client reply for them; the
  /// same bytes from any other client are ordinary data.
  [[nodiscard]] static bool is_bookkeeping(ShardId shard,
                                           std::uint64_t client,
                                           const Bytes& payload);
  /// Deterministic tx id: first 8 bytes of SHA-256 over (client, seq,
  /// payload) — a client retry maps to the same tx and is absorbed by
  /// the engine's dedup.
  [[nodiscard]] static std::uint64_t txid_of(std::uint64_t client,
                                             std::uint64_t seq,
                                             const Bytes& payload);
  /// The synthetic client that submits a tx's BEGIN, and the one that
  /// submits its APPLY at `shard`. Both carry kReservedClientBit.
  [[nodiscard]] static std::uint64_t coord_client(std::uint64_t txid);
  [[nodiscard]] static std::uint64_t part_client(std::uint64_t txid,
                                                 ShardId shard);

  /// Entry point for a client's "DTX1" request: parses the key set,
  /// starts (or re-joins) the transaction and submits BEGIN to the
  /// coordinator shard. Returns false on a malformed request (not a
  /// dtx, no keys, oversized).
  bool submit(std::uint64_t client, std::uint64_t seq, const Bytes& payload);

  /// Wire this into ShardedSmrConfig::on_execute — the tracker advances
  /// purely from executed entries.
  void on_execute(ShardId shard, const smr::ExecutedCommand& cmd);

  /// Post-recovery: reconstructs tx state from every group's executed
  /// log, then resumes driving whatever is still in flight.
  void rebuild_from_logs();

  void set_on_complete(OnComplete cb) { on_complete_ = std::move(cb); }

  /// Whether the tx has committed on this replica. Lets a node answer a
  /// client retry of an already-finished tx.
  [[nodiscard]] bool completed_status(std::uint64_t txid) const;

  // ---- inspection ----
  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] std::uint64_t in_flight() const;

 private:
  struct Tx {
    std::uint64_t txid = 0;
    std::uint64_t origin_client = 0;
    std::uint64_t origin_seq = 0;
    std::vector<Bytes> keys;
    ShardId coord = 0;
    std::map<ShardId, std::vector<Bytes>> by_shard;  // participants
    bool begun = false;  // BEGIN executed in the coordinator log
    std::set<ShardId> applied;
    bool completed = false;
  };

  /// Fills keys/coord/by_shard from a key list (placement is pure, so
  /// every replica derives the identical participant set).
  void place(Tx& tx, std::vector<Bytes> keys);
  /// Idempotently submits every transition the tx's state calls for.
  void drive(Tx& tx);
  void complete(Tx& tx);
  /// Applies one executed entry to the tracker; returns the touched tx
  /// (nullptr unless is_bookkeeping). No driving — callers decide.
  Tx* apply_entry(ShardId shard, std::uint64_t client, const Bytes& payload);
  void arm_pump();

  ShardedSmr& service_;
  sync::Synchronizer::TimerSetter set_timer_;
  OnComplete on_complete_;

  std::map<std::uint64_t, Tx> txs_;
  std::uint64_t committed_ = 0;
  bool pump_armed_ = false;
};

}  // namespace probft::shard
