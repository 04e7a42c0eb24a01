// The traced run: the same replicas as the process cluster, hosted in this
// process, each on its own net::TcpTransport loop thread and wired the way
// probft_node wires them (sim::make_smr_node, sim::transport_host, the
// client handler, on_execute) — with a span recorded around every call into
// a layer:
//   crypto — a timing CryptoSuite decorator (sign, verify, verify_batch,
//            vrf_prove, vrf_verify);
//   net    — the wrapped ProtocolHost send/broadcast, and the peer and
//            client handlers the transport calls;
//   sync   — the wrapped set_timer (arms) and each timer callback (fires);
//   smr    — submit_request, submit_read and on_execute.
// A span is (kind, start, end, parent, op id); its parent is the span open
// on the same thread when it began. Each loop thread owns its replica's
// Tracer, so recording takes no lock; spans stay in memory and are read,
// and written out, after the threads are joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "crypto/suite.hpp"
#include "loadgen.hpp"

namespace probft::net {
class TcpTransport;
}
namespace probft::smr {
class SmrReplica;
}
namespace probft::store {
class Wal;
}

namespace perfbench {

enum class Kind : std::uint8_t {
  kPeer,     // peer handler → SmrReplica::on_message
  kClient,   // client handler (a = client, b = seq or read id, c = tag)
  kSubmit,   // SmrReplica::submit_request (a = client, b = seq)
  kRead,     // SmrReplica::submit_read (a = client, b = read id)
  kExecute,  // on_execute (a = client, b = seq, c = slot)
  kSend,     // ProtocolHost send/broadcast (a = recipient or 0, b = tag)
  kTimer,    // a timer callback firing
  kSign,
  kVerify,
  kVrfProve,
  kVrfVerify,
  kBatch,  // verify_batch (a = signatures in the batch)
  kCount,
};
const char* kind_name(Kind kind);

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 at top level
  Kind kind = Kind::kPeer;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// One thread's span recorder, plus the counts taken at the same
/// boundaries.
class Tracer {
 public:
  std::int32_t open(Kind kind, std::uint64_t a = 0, std::uint64_t b = 0,
                    std::uint64_t c = 0);
  void close(std::int32_t idx);
  void label(std::int32_t idx, std::uint64_t a, std::uint64_t b,
             std::uint64_t c);

  std::vector<Span> spans;
  std::uint64_t dropped = 0;  // spans past the memory cap
  /// Thread CPU time spent inside top-level spans (handlers, timers).
  std::int64_t top_cpu_ns = 0;
  std::uint64_t timer_arms = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t view_change_sends = 0;  // per recipient
  /// The first Propose this replica sent for each slot.
  std::unordered_map<std::uint64_t, std::int64_t> first_propose;

 private:
  std::vector<std::int32_t> stack_;
  std::int64_t top_cpu_start_ = 0;
};

/// CPU time the calling thread has used so far.
std::int64_t thread_cpu_ns();

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Kind kind, std::uint64_t a = 0,
             std::uint64_t b = 0, std::uint64_t c = 0)
      : tracer_(tracer), idx_(tracer.open(kind, a, b, c)) {}
  ~ScopedSpan() { tracer_.close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t index() const { return idx_; }

 private:
  Tracer& tracer_;
  std::int32_t idx_;
};

struct TracedConfig {
  std::uint32_t n = 4;
  std::uint64_t seed = 1;
  std::string suite = "sim";
  std::string wal_root;  // empty: no WAL
  bool reads = false;
};

/// Loop-thread state read at the end of the run, on the loop thread.
struct ReplicaSnapshot {
  bool taken = false;
  std::int64_t thread_cpu_ns = 0;
  std::uint64_t frames_flushed = 0;
  std::uint64_t flush_syscalls = 0;
  std::uint64_t slots = 0;
  std::uint64_t cmds = 0;
  std::string digest;
  std::uint64_t reads_served = 0;
  std::uint64_t lease_reads = 0;
};

class TracedCluster {
 public:
  explicit TracedCluster(TracedConfig cfg);
  ~TracedCluster();
  TracedCluster(const TracedCluster&) = delete;
  TracedCluster& operator=(const TracedCluster&) = delete;

  /// Binds every transport and starts the loop threads; returns once all
  /// replicas serve. Throws when a replica fails to come up.
  void start();
  [[nodiscard]] std::int64_t started_at() const { return started_at_; }
  [[nodiscard]] std::vector<Endpoint> client_endpoints() const;
  /// Crash: snapshot, stop and destroy replica `id` (its sockets close).
  void kill(std::uint32_t id);
  /// Snapshots and stops every replica still running.
  void stop();

  [[nodiscard]] std::uint32_t size() const { return cfg_.n; }
  [[nodiscard]] bool killed(std::uint32_t id) const;
  [[nodiscard]] const Tracer& tracer(std::uint32_t id) const;
  [[nodiscard]] const ReplicaSnapshot& snapshot(std::uint32_t id) const;
  /// Writes every span as CSV: replica,kind,start_ns,end_ns,parent,a,b,c.
  bool write_spans(const std::string& path) const;

  struct Replica;

 private:
  void halt(Replica& replica);

  TracedConfig cfg_;
  std::int64_t started_at_ = 0;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

}  // namespace perfbench
