// Real-socket ITransport backend: one replica per OS process.
//
// Design (sans-I/O on top, plain POSIX below):
//  - Every node listens on its configured address and DIALS every peer, so
//    each ordered pair (i → j) has one TCP connection carrying i's traffic
//    to j; accepted connections are receive-only. This avoids connection
//    dedup/handshake logic entirely. A connection is BOUND to the sender id
//    claimed by its first valid frame (dialed connections are bound to the
//    dialed peer): later frames claiming any other id poison the stream and
//    drop it. Without that pinning, one hostile peer could stamp frames
//    with every replica id over a single socket and counterfeit f+1
//    "distinct senders" for unsigned traffic (the SMR catch-up vouchers);
//    signatures authenticate message *contents*, not the multiplicity of
//    claimed origins.
//  - Sockets are nonblocking and multiplexed with poll(2) in a
//    single-threaded event loop (run_until()); protocol callbacks run on
//    the loop thread, so replica code needs no locking — the same
//    single-threaded discipline the simulator enforces.
//  - Timers use CLOCK_MONOTONIC and a min-heap; set_timer() satisfies the
//    sync::Synchronizer::TimerSetter contract (delays in microseconds).
//  - A failed or reset dial is retried after kReconnectDelay for as long
//    as the loop runs; outbound messages queue (bounded) while a peer is
//    down, so a cluster whose processes start at different times still
//    converges.
//  - Dialed peers, accepted peers and clients are one connection type
//    (Conn) with one receive, one sendmsg flush, one accept and one close
//    path. Only the edges branch on its role: which handler a frame
//    reaches and which sender it may claim, what a lost socket does (a
//    dialed peer rewinds its front frame and redials; the others close),
//    and what a full queue does (a peer frame is dropped; a client is
//    disconnected).
//
// The wire format is the length-prefixed framing in net/frame.hpp; a
// malformed stream (bad version, oversize length) poisons that connection
// and it is dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/mutex.hpp"
#include "common/types.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"

namespace probft::net {

struct PeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Redial delay after a failed or lost peer connection (µs, monotonic).
inline constexpr Duration kReconnectDelay = 100'000;
/// Per-peer cap on bytes queued while the peer is unreachable; frames
/// beyond it are counted as dropped (backpressure, not unbounded memory).
inline constexpr std::size_t kMaxPendingBytes = 64u << 20;
/// Frames queued during one loop iteration leave in one sendmsg(iovec)
/// per connection when it ends; a queue past this watermark is flushed at
/// once, so a burst inside one callback cannot grow it unboundedly.
inline constexpr std::size_t kFlushWatermark = 256u << 10;
/// Cap on unsent reply bytes per client connection; a client that stops
/// reading is disconnected instead of buffering without bound.
inline constexpr std::size_t kMaxClientPendingBytes = 16u << 20;
/// Cap on concurrently open client connections; beyond it, new ones are
/// closed immediately (fd-exhaustion resistance on a public-facing port).
inline constexpr std::size_t kMaxClientConns = 1024;

struct TcpTransportConfig {
  ReplicaId self = 0;
  std::uint32_t n = 0;
  /// Address this node listens on. Port 0 binds an ephemeral port — read
  /// it back with listen_port() (used by the in-process loopback harness).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  /// Peer addresses, 1-based by replica id; the own entry may be empty.
  /// May be filled after construction with set_peer() (ephemeral ports).
  std::map<ReplicaId, PeerAddress> peers;

  /// Optional client-facing listener (the SMR service port). When
  /// enabled, the transport also accepts connections on this address;
  /// frames arriving there are handed to the client handler (keyed by a
  /// connection id for replies) instead of the replica handler, so
  /// clients never need to speak the replica peer protocol. Port 0 binds
  /// an ephemeral port — read it back with client_port().
  bool client_port_enabled = false;
  std::string client_listen_host = "127.0.0.1";
  std::uint16_t client_listen_port = 0;
};

class TcpTransport final : public ITransport {
 public:
  /// Binds and listens immediately; throws std::system_error on failure.
  explicit TcpTransport(TcpTransportConfig config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // ---- ITransport ----
  // Loop-thread-only (like everything except post()/stop()): each entry
  // point asserts the loop_thread_ capability, which also arms a runtime
  // thread-id check in debug builds.
  /// Only this node's own id is hosted here.
  void register_handler(ReplicaId id, Handler handler) override;
  void send(ReplicaId from, ReplicaId to, std::uint8_t tag,
            Bytes payload) override;
  void broadcast(ReplicaId from, std::uint8_t tag,
                 const Bytes& payload) override;
  [[nodiscard]] const TransportStats& stats() const override {
    loop_thread_.assert_held();
    return stats_;
  }

  // ---- wiring ----
  /// The actually-bound listen port (after ephemeral bind).
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }
  /// (Re)sets a peer address before the loop runs.
  void set_peer(ReplicaId id, PeerAddress address);

  // ---- client port ----
  /// Receives frames from client connections as (connection id, tag,
  /// payload). Connection ids are never reused within one transport.
  using ClientHandler = std::function<void(
      std::uint64_t conn, std::uint8_t tag, const Bytes& payload)>;
  void set_client_handler(ClientHandler handler) {
    loop_thread_.assert_held();
    client_handler_ = std::move(handler);
  }
  /// Queues one frame to a client connection; it leaves with the
  /// connection's coalesced flush at the end of the loop iteration. Counts
  /// it dropped if the connection is gone (the client retries against any
  /// replica) or disconnects a client past kMaxClientPendingBytes.
  void send_to_client(std::uint64_t conn, std::uint8_t tag,
                      const Bytes& payload);
  /// The actually-bound client port (0 when the listener is disabled).
  [[nodiscard]] std::uint16_t client_port() const { return client_port_; }

  /// Schedules `fn` after `delay` µs of monotonic time; satisfies the
  /// Synchronizer::TimerSetter contract. Callable only from the loop
  /// thread (or before the loop starts).
  void set_timer(Duration delay, std::function<void()> fn);
  /// Adapter handed to protocol hosts.
  [[nodiscard]] std::function<void(Duration, std::function<void()>)>
  timer_setter() {
    return [this](Duration d, std::function<void()> fn) {
      set_timer(d, std::move(fn));
    };
  }

  // ---- event loop ----
  /// Runs until `done()` returns true, `max_wall` µs elapsed, or stop().
  /// Returns the final done() value. Acquires the loop_thread_ role for
  /// the duration of the run.
  bool run_until(const std::function<bool()>& done, Duration max_wall);
  /// Asynchronously stops a run_until() in progress (thread-safe). Writes
  /// the wake pipe so a loop parked in poll(2) notices immediately rather
  /// than after the idle poll timeout.
  void stop();

  /// Thread-safe: schedules `fn` to run on the loop thread at the top of
  /// its next iteration and wakes the loop if it is parked in poll(2).
  /// This is how another thread (e.g. a test driving a running loop)
  /// hands work to the single-threaded protocol world; everything else
  /// on this class stays loop-thread-only.
  void post(std::function<void()> fn) PROBFT_EXCLUDES(posted_mu_);

  /// Observability for the write-batching path (tests/benches):
  /// cumulative sendmsg(2) calls and frames they carried, peer and client
  /// connections alike. Coalescing = frames_flushed() >> flush_syscalls()
  /// under load.
  [[nodiscard]] std::uint64_t flush_syscalls() const {
    loop_thread_.assert_held();
    return flush_syscalls_;
  }
  [[nodiscard]] std::uint64_t frames_flushed() const {
    loop_thread_.assert_held();
    return frames_flushed_;
  }

  /// Completed dials so far (first connects count too); used by tests to
  /// observe reconnect behavior.
  [[nodiscard]] std::uint64_t connects() const {
    loop_thread_.assert_held();
    return connects_;
  }

 private:
  struct Conn {
    enum class Role : std::uint8_t {
      kDialed,    // this node → peer; carries our traffic, redialed on loss
      kAccepted,  // peer → this node; receive-only
      kClient,    // client port; requests in, replies out
    };
    Conn(Role r, int socket) : role(r), fd(socket) {}

    Role role;
    int fd;
    FrameDecoder decoder;
    /// kDialed: the dialed peer; kAccepted: the sender pinned by the first
    /// valid frame (0 = unbound). Frames claiming another id close it.
    ReplicaId peer = 0;
    std::uint64_t client_id = 0;  // kClient: the id the handler sees
    bool connecting = false;      // kDialed: nonblocking connect in flight
    bool retry_armed = false;     // kDialed: reconnect timer pending
    /// Unsent traffic, one encoded frame per entry. Kept at frame
    /// granularity so a dialed connection lost mid-frame can restart the
    /// front frame from byte 0 on the next connection — the receiver
    /// discarded the partial frame with the dead stream, and splicing a
    /// frame tail into a fresh stream would poison its decoder. Frames are
    /// shared across a broadcast's whole fan-out (encoded once, like the
    /// simulator network's shared payload buffers).
    std::deque<std::shared_ptr<const Bytes>> pending;
    std::size_t front_off = 0;      // sent prefix of pending.front()
    std::size_t pending_bytes = 0;  // sum of pending sizes
    bool dirty = false;  // queued frames await the end-of-iteration flush
  };
  struct Timer {
    TimePoint at = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  [[nodiscard]] static TimePoint now_us();
  // All of these run with the loop_thread_ role held (clang enforces it;
  // the constructor is the one unchecked caller, which is fine — nothing
  // else can reach the object during construction).
  /// The dialed connection to `peer`: conns_ opens with one per other
  /// replica, in id order, and never reaps them.
  Conn& dialed(ReplicaId peer) PROBFT_REQUIRES(loop_thread_) {
    return *conns_[peer < cfg_.self ? peer - 1 : peer - 2];
  }
  /// Accepts everything pending on `listen_fd` as `role` connections.
  void accept_all(int listen_fd, Conn::Role role)
      PROBFT_REQUIRES(loop_thread_);
  void start_dial(Conn& conn) PROBFT_REQUIRES(loop_thread_);
  void finish_dial(Conn& conn) PROBFT_REQUIRES(loop_thread_);
  void fail_dial(Conn& conn) PROBFT_REQUIRES(loop_thread_);
  /// A dialed connection keeps its queue, rewinds and redials; any other
  /// is reaped by the loop.
  void close_conn(Conn& conn) PROBFT_REQUIRES(loop_thread_);
  /// Counts one logical send; false (counted dropped) when the payload
  /// exceeds the frame cap.
  bool count_send(std::uint8_t tag, std::size_t payload_size)
      PROBFT_REQUIRES(loop_thread_);
  /// Appends `frame` to the queue: flushed now past kFlushWatermark,
  /// otherwise marked dirty for flush_dirty(); dials an idle peer.
  void enqueue(Conn& conn, std::shared_ptr<const Bytes> frame)
      PROBFT_REQUIRES(loop_thread_);
  void flush(Conn& conn) PROBFT_REQUIRES(loop_thread_);
  /// End-of-iteration pass over connections enqueue() marked dirty.
  void flush_dirty() PROBFT_REQUIRES(loop_thread_);
  /// Runs callbacks queued by post() (loop thread, top of iteration).
  void run_posted() PROBFT_REQUIRES(loop_thread_) PROBFT_EXCLUDES(posted_mu_);
  /// One recipient of a (possibly fanned-out) send: stats, self-delivery,
  /// oversize drop, lazy shared encoding, queueing. `frame` caches the
  /// encoded bytes across a broadcast loop.
  void send_one(ReplicaId to, std::uint8_t tag, const Bytes& payload,
                std::shared_ptr<const Bytes>& frame)
      PROBFT_REQUIRES(loop_thread_);
  /// Drains the socket into the decoder and dispatches complete frames;
  /// closes the connection on EOF, a hard error or a poisoned stream.
  void receive(Conn& conn) PROBFT_REQUIRES(loop_thread_);
  /// Hands one frame to the client or the replica handler; false (counted
  /// dropped) when a peer frame claims an id the connection may not.
  bool dispatch(Conn& conn, const Frame& frame) PROBFT_REQUIRES(loop_thread_);
  void fire_due_timers() PROBFT_REQUIRES(loop_thread_);
  [[nodiscard]] int poll_timeout_ms() const PROBFT_REQUIRES(loop_thread_);

  /// The "loop thread only" invariant, as a capability: held by
  /// run_until(), asserted by every confined entry point. cfg_ and the
  /// listener fds/ports are set at construction (set_peer before the loop
  /// runs) and left unguarded as effectively immutable.
  ThreadRole loop_thread_;

  TcpTransportConfig cfg_;
  Handler handler_ PROBFT_GUARDED_BY(loop_thread_);
  TransportStats stats_ PROBFT_GUARDED_BY(loop_thread_);

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  int client_listen_fd_ = -1;  // -1 when the client port is disabled
  std::uint16_t client_port_ = 0;
  /// Every connection: the dialed ones first (see dialed()), then accepted
  /// and client ones in accept order. Closed accepted and client
  /// connections are reaped right after flush_dirty(), when no pointer to
  /// them is left in dirty_.
  std::vector<std::unique_ptr<Conn>> conns_ PROBFT_GUARDED_BY(loop_thread_);
  std::uint64_t next_client_conn_ PROBFT_GUARDED_BY(loop_thread_) = 1;
  ClientHandler client_handler_ PROBFT_GUARDED_BY(loop_thread_);

  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_
      PROBFT_GUARDED_BY(loop_thread_);
  std::uint64_t timer_seq_ PROBFT_GUARDED_BY(loop_thread_) = 0;

  std::atomic<bool> stop_{false};
  std::uint64_t connects_ PROBFT_GUARDED_BY(loop_thread_) = 0;

  // connections with frames awaiting flush_dirty()
  std::vector<Conn*> dirty_ PROBFT_GUARDED_BY(loop_thread_);
  std::uint64_t flush_syscalls_ PROBFT_GUARDED_BY(loop_thread_) = 0;
  std::uint64_t frames_flushed_ PROBFT_GUARDED_BY(loop_thread_) = 0;

  // post()/stop() handoff — the only cross-thread door: tasks land here
  // from any thread; a byte through the self-pipe knocks the loop out of
  // poll(2). The pipe fds themselves are set at construction, immutable.
  Mutex posted_mu_;
  std::vector<std::function<void()>> posted_ PROBFT_GUARDED_BY(posted_mu_);
  int wake_pipe_[2] = {-1, -1};
};

}  // namespace probft::net
