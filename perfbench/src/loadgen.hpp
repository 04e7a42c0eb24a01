// Single-threaded load generator for the SMR client port.
//
// K logical clients — each with its own client id and seq counter, and at
// most one operation in flight — are multiplexed over one TCP connection
// per server. Closed loop: a client sends its next operation as soon as the
// previous one is answered. Open loop: operations fall due on a fixed
// schedule (rate r: one every 1/r s) and go to whichever client is idle, a
// new client id when none is. Every op is timed from its due time; in a
// closed loop that is the moment its predecessor was answered, so the time
// to send it is the generator's own lateness, recorded per op either way.
//
// Inputs come from the seed: client c's k-th operation (write payload, or
// which of its own completed writes a read is keyed by) is drawn from a
// generator seeded with (seed, c). A write "k<c>.<seq>=<16 hex>" stores the
// hex value under the key; its reply must echo the payload, and a read of
// that key must return the value.
//
// Retry policy, bounded so it cannot start a retry storm:
//  - an op unanswered after 2 s is re-sent to ONE other server; the wait
//    doubles on each further attempt, up to 8 s;
//  - a kRejected/kRedirect answer re-sends to the next server after
//    50 ms * 2^attempt;
//  - a connection that dies re-sends its in-flight ops once, to the next
//    live server;
//  - all re-sends draw on one token bucket (2000 per second);
//  - an op still unanswered 15 s after it fell due fails.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "net/frame.hpp"
#include "util.hpp"

namespace perfbench {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// One stretch of offered load.
struct Phase {
  bool open_loop = false;
  std::uint32_t clients = 8;        // closed loop: logical clients
  double rate = 0.0;                // open loop: offered ops/s
  double read_frac = 0.0;           // share of ops that are reads
  std::int64_t duration_ns = 0;
  /// > 0: the phase ends early once it issued this many writes. Every
  /// write can cost a log slot, so this keeps a run under the slot cap
  /// however fast the cluster answers.
  std::uint64_t max_writes = 0;
  bool record = false;              // ops falling due here are measured
  std::int64_t kill_after_ns = -1;  // >= 0: call on_kill this far in
};

/// One measured operation (due inside a recorded phase).
struct OpSample {
  bool read = false;
  bool ok = false;
  std::uint64_t client = 0;
  std::uint64_t seq = 0;  // write seq, or read id
  std::int64_t due = 0;   // when the schedule wanted it sent
  std::int64_t sent = 0;  // first transmission
  std::int64_t done = 0;  // answer decoded; 0 when it never was
};

struct GenCounters {
  std::uint64_t attempted = 0;    // ops issued
  std::uint64_t writes_ok = 0;    // executed, and the reply echoed the payload
  std::uint64_t reads_ok = 0;     // returned the value of the write keyed
  std::uint64_t wrong = 0;        // answered with a wrong value
  std::uint64_t timed_out = 0;    // never answered in time
  std::uint64_t retries = 0;      // re-sends of any cause
  std::uint64_t rejected = 0;     // kRejected / kRedirect answers
  std::uint64_t window_done = 0;  // ops answered inside the recorded window
  [[nodiscard]] std::uint64_t failed() const { return wrong + timed_out; }
};

class LoadGen {
 public:
  LoadGen(std::vector<Endpoint> servers, std::uint64_t seed,
          std::uint64_t client_base);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Dials every server until `deadline`; gives up early once `abort()`.
  bool connect(std::int64_t deadline, const std::function<bool()>& abort);
  /// One write sent to each of `servers` at once (nothing else may be in
  /// flight). Returns when the last answer arrived, or 0 when not all did
  /// by `deadline`. A server answers only once it executed the write
  /// itself, so a probe through every server shows all replicas connected
  /// and caught up.
  std::int64_t probe(std::int64_t deadline,
                     const std::vector<std::size_t>& servers);
  /// Offers `phase`; ops still in flight when it ends carry over.
  void run(const Phase& phase, const std::function<void()>& on_kill = {});
  /// Stops offering and waits until every op in flight finished or failed.
  void drain();

  [[nodiscard]] std::size_t servers() const { return conns_.size(); }
  /// Whether the connection to `server` is still up.
  [[nodiscard]] bool live(std::size_t server) const {
    return conns_[server].fd >= 0;
  }
  [[nodiscard]] const std::vector<OpSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] const GenCounters& counters() const { return counters_; }
  [[nodiscard]] std::int64_t window_start() const { return window_start_; }
  [[nodiscard]] std::int64_t window_end() const { return window_end_; }
  [[nodiscard]] std::int64_t kill_time() const { return kill_time_; }

 private:
  struct Conn {
    int fd = -1;
    probft::net::FrameDecoder decoder;
    probft::Bytes out;
    std::size_t off = 0;  // sent prefix of `out`
  };
  struct Client {
    std::uint64_t id = 0;
    Rng rng{0};
    std::uint64_t next_seq = 1;
    bool busy = false;
    // The op in flight.
    bool read = false;
    bool record = false;
    std::uint64_t seq = 0;
    probft::Bytes body;    // write payload, or read key
    probft::Bytes expect;  // answer bytes that prove it correct
    std::int64_t due = 0;
    std::int64_t sent = 0;
    std::size_t server = 0;
    std::uint32_t attempts = 0;
    std::uint32_t gen = 0;  // invalidates superseded retry entries
    // Completed writes (key, value) this client's reads are keyed by.
    std::vector<std::pair<probft::Bytes, probft::Bytes>> written;
  };
  struct Retry {
    std::int64_t at = 0;
    std::size_t client = 0;
    std::uint32_t gen = 0;
    bool move = false;  // switch to the next live server when it fires
    bool operator>(const Retry& other) const { return at > other.at; }
  };
  enum class Outcome { kOk, kWrong, kTimedOut };

  std::size_t new_client();
  std::size_t take_idle();
  void issue(std::size_t idx, std::int64_t due);
  void issue(std::size_t idx, std::int64_t due, std::size_t server);
  void transmit(std::size_t idx, bool move_on_timeout);
  void reject(std::size_t idx);
  void complete(std::size_t idx, Outcome outcome);
  void fire_retries(std::int64_t now);
  void poll_once(std::int64_t wait_ns);
  void read_conn(std::size_t s);
  void flush(std::size_t s);
  void flush_all();
  void close_conn(std::size_t s);
  void handle_frame(const probft::net::Frame& frame);
  [[nodiscard]] Client* lookup(std::uint64_t client_id);
  [[nodiscard]] std::size_t next_live(std::size_t from) const;
  [[nodiscard]] std::size_t first_live() const;
  [[nodiscard]] bool write_budget_spent() const;

  std::vector<Endpoint> endpoints_;
  std::vector<Conn> conns_;
  std::uint64_t seed_;
  std::uint64_t client_base_;
  std::vector<Client> clients_;
  std::vector<std::size_t> idle_;
  std::size_t busy_ = 0;
  std::priority_queue<Retry, std::vector<Retry>, std::greater<>> retries_;
  double tokens_;
  std::int64_t tokens_at_;
  std::uint64_t next_read_id_ = 0;
  std::int64_t last_done_ = 0;
  std::vector<std::uint8_t> rxbuf_;

  Phase phase_;
  std::uint64_t phase_writes_ = 0;
  bool offering_ = false;
  std::int64_t phase_end_ = 0;
  std::int64_t window_start_ = 0;
  std::int64_t window_end_ = 0;
  std::int64_t kill_time_ = 0;
  std::vector<OpSample> samples_;
  GenCounters counters_;
};

}  // namespace perfbench
