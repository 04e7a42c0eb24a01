#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <system_error>

namespace probft::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Every connection socket: nonblocking, and no Nagle delay on frames.
void set_stream_options(int fd) {
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Resolves host:port to a sockaddr (numeric addresses and hostnames).
bool resolve(const PeerAddress& address, sockaddr_storage& out,
             socklen_t& out_len) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  const std::string port = std::to_string(address.port);
  addrinfo* result = nullptr;
  if (::getaddrinfo(address.host.c_str(), port.c_str(), &hints, &result) !=
          0 ||
      result == nullptr) {
    return false;
  }
  std::memcpy(&out, result->ai_addr, result->ai_addrlen);
  out_len = static_cast<socklen_t>(result->ai_addrlen);
  ::freeaddrinfo(result);
  return true;
}

}  // namespace

TimePoint TcpTransport::now_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<TimePoint>(ts.tv_sec) * 1'000'000 +
         static_cast<TimePoint>(ts.tv_nsec) / 1'000;
}

namespace {

/// Binds and listens on `bind_addr`, returning the fd and writing the
/// actually-bound port to `bound_port`. Throws on failure.
int listen_on(const PeerAddress& bind_addr, std::uint16_t& bound_port) {
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  if (!resolve(bind_addr, addr, addr_len)) {
    throw std::invalid_argument("TcpTransport: cannot resolve listen host");
  }
  const int fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), addr_len) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind");
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen");
  }
  set_nonblocking(fd);

  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    if (bound.ss_family == AF_INET) {
      bound_port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      bound_port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  return fd;
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportConfig config)
    : cfg_(std::move(config)) {
  if (cfg_.self == 0 || cfg_.n == 0 || cfg_.self > cfg_.n) {
    throw std::invalid_argument("TcpTransport: bad self/n");
  }
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    if (id == cfg_.self) continue;
    conns_.push_back(std::make_unique<Conn>(Conn::Role::kDialed, -1));
    conns_.back()->peer = id;
  }
  listen_fd_ =
      listen_on(PeerAddress{cfg_.listen_host, cfg_.listen_port}, listen_port_);
  if (cfg_.client_port_enabled) {
    client_listen_fd_ = listen_on(
        PeerAddress{cfg_.client_listen_host, cfg_.client_listen_port},
        client_port_);
  }
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
}

TcpTransport::~TcpTransport() {
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (client_listen_fd_ >= 0) ::close(client_listen_fd_);
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void TcpTransport::register_handler(ReplicaId id, Handler handler) {
  loop_thread_.assert_held();
  if (id != cfg_.self) {
    throw std::out_of_range("TcpTransport hosts only its own replica");
  }
  handler_ = std::move(handler);
}

void TcpTransport::set_peer(ReplicaId id, PeerAddress address) {
  loop_thread_.assert_held();
  if (id == 0 || id > cfg_.n) throw std::out_of_range("set_peer: bad id");
  cfg_.peers[id] = std::move(address);
}

void TcpTransport::set_timer(Duration delay, std::function<void()> fn) {
  loop_thread_.assert_held();
  timers_.push(Timer{now_us() + delay, timer_seq_++, std::move(fn)});
}

bool TcpTransport::count_send(std::uint8_t tag, std::size_t payload_size) {
  ++stats_.sends;
  ++stats_.sends_by_tag[tag];
  stats_.bytes_sent += payload_size;
  stats_.bytes_by_tag[tag] += payload_size;
  // A frame the receiver's decoder would reject as oversize must never hit
  // the wire: the receiver would poison the connection, we would rewind
  // and redial, and the identical frame would livelock the link forever.
  if (payload_size > kDefaultMaxFramePayload) {
    ++stats_.dropped;
    return false;
  }
  return true;
}

void TcpTransport::send_one(ReplicaId to, std::uint8_t tag,
                            const Bytes& payload,
                            std::shared_ptr<const Bytes>& frame) {
  if (to == 0 || to > cfg_.n) throw std::out_of_range("send: bad recipient");
  if (!count_send(tag, payload.size())) return;

  if (to == cfg_.self) {
    // Self-sends stay asynchronous (like the simulator's minimum delay):
    // deliver on the next loop iteration, never reentrantly.
    auto copy = std::make_shared<Bytes>(payload);
    set_timer(0, [this, tag, copy]() {
      loop_thread_.assert_held();  // timers fire on the loop thread
      if (handler_) {
        ++stats_.delivered;
        handler_(cfg_.self, tag, *copy);
      }
    });
    return;
  }

  Conn& conn = dialed(to);
  if (conn.pending_bytes >= kMaxPendingBytes) {
    ++stats_.dropped;  // backpressure: peer unreachable for too long
    return;
  }
  // Encode lazily and once per fan-out: every recipient queues the same
  // immutable buffer (the sim network shares broadcast payloads the same
  // way — at n = 2000 per-recipient copies dominated).
  if (!frame) {
    frame = std::make_shared<const Bytes>(encode_frame(
        cfg_.self, tag, ByteSpan(payload.data(), payload.size())));
  }
  enqueue(conn, frame);
}

void TcpTransport::send(ReplicaId from, ReplicaId to, std::uint8_t tag,
                        Bytes payload) {
  loop_thread_.assert_held();
  if (from != cfg_.self) {
    throw std::invalid_argument("TcpTransport: send from foreign id");
  }
  std::shared_ptr<const Bytes> frame;
  send_one(to, tag, payload, frame);
}

void TcpTransport::broadcast(ReplicaId from, std::uint8_t tag,
                             const Bytes& payload) {
  loop_thread_.assert_held();
  if (from != cfg_.self) {
    throw std::invalid_argument("TcpTransport: send from foreign id");
  }
  std::shared_ptr<const Bytes> frame;
  for (ReplicaId to = 1; to <= cfg_.n; ++to) {
    if (to != from) send_one(to, tag, payload, frame);
  }
}

void TcpTransport::send_to_client(std::uint64_t conn_id, std::uint8_t tag,
                                  const Bytes& payload) {
  loop_thread_.assert_held();
  if (!count_send(tag, payload.size())) return;
  const auto it =
      std::find_if(conns_.begin(), conns_.end(), [&](const auto& c) {
        return c->role == Conn::Role::kClient && c->client_id == conn_id &&
               c->fd >= 0;
      });
  if (it == conns_.end()) {
    ++stats_.dropped;  // connection gone; the client will retry elsewhere
    return;
  }
  Conn& conn = **it;
  auto frame = std::make_shared<const Bytes>(
      encode_frame(cfg_.self, tag, ByteSpan(payload.data(), payload.size())));
  if (conn.pending_bytes - conn.front_off + frame->size() >
      kMaxClientPendingBytes) {
    // The client stopped reading: cut it loose rather than buffer
    // without bound. It can reconnect and retry.
    close_conn(conn);
    ++stats_.dropped;
    return;
  }
  enqueue(conn, std::move(frame));
}

void TcpTransport::enqueue(Conn& conn, std::shared_ptr<const Bytes> frame) {
  conn.pending_bytes += frame->size();
  conn.pending.push_back(std::move(frame));
  if (conn.fd < 0) {
    // Only a dialed connection is queued onto without a socket.
    if (!conn.retry_armed) start_dial(conn);
  } else if (conn.connecting) {
    // finish_dial() flushes.
  } else if (conn.pending_bytes >= kFlushWatermark) {
    flush(conn);  // a burst crossed the watermark mid-iteration
  } else if (!conn.dirty) {
    conn.dirty = true;  // coalesced into one sendmsg by flush_dirty()
    dirty_.push_back(&conn);
  }
}

void TcpTransport::start_dial(Conn& conn) {
  const auto it = cfg_.peers.find(conn.peer);
  if (it == cfg_.peers.end() || it->second.port == 0) {
    // Address not configured (yet): retry later, the harness may still be
    // wiring ephemeral ports.
    fail_dial(conn);
    return;
  }
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  if (!resolve(it->second, addr, addr_len)) {
    fail_dial(conn);
    return;
  }
  conn.fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
  if (conn.fd < 0) {
    fail_dial(conn);
    return;
  }
  set_stream_options(conn.fd);
  const int rc =
      ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), addr_len);
  if (rc == 0) {
    ++connects_;
    flush(conn);
  } else if (errno == EINPROGRESS) {
    conn.connecting = true;
  } else {
    close_conn(conn);
  }
}

void TcpTransport::finish_dial(Conn& conn) {
  int err = 0;
  socklen_t len = sizeof(err);
  ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  conn.connecting = false;
  if (err != 0) {
    close_conn(conn);
    return;
  }
  ++connects_;
  flush(conn);
}

void TcpTransport::fail_dial(Conn& conn) {
  if (conn.retry_armed) return;
  conn.retry_armed = true;
  const ReplicaId peer = conn.peer;
  set_timer(kReconnectDelay, [this, peer]() {
    loop_thread_.assert_held();  // timers fire on the loop thread
    Conn& c = dialed(peer);
    c.retry_armed = false;
    if (c.fd < 0 && !c.pending.empty()) start_dial(c);
  });
}

void TcpTransport::close_conn(Conn& conn) {
  ::close(conn.fd);
  conn.fd = -1;
  if (conn.role != Conn::Role::kDialed) return;  // reaped by the loop
  // Rewind to the front frame's first byte and redial. The receiver
  // discards any partial frame with the dead stream, so retransmitting the
  // whole frame on the fresh connection delivers it exactly once (or not
  // at all if the peer stays down — protocols tolerate loss under partial
  // synchrony).
  conn.connecting = false;
  conn.front_off = 0;
  conn.decoder = FrameDecoder();
  fail_dial(conn);
}

void TcpTransport::flush(Conn& conn) {
  // One sendmsg(2) per gather of up to kMaxIov queued frames (the front
  // frame enters from its unsent offset) instead of one send(2) per
  // frame — the syscall count per burst drops from O(frames) to O(1).
  constexpr std::size_t kMaxIov = 64;
  while (!conn.pending.empty()) {
    iovec iov[kMaxIov];
    std::size_t iov_count = 0;
    std::size_t gathered = 0;
    for (const auto& frame : conn.pending) {
      if (iov_count == kMaxIov) break;
      const std::size_t off = iov_count == 0 ? conn.front_off : 0;
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(frame->data() + off);
      iov[iov_count].iov_len = frame->size() - off;
      gathered += frame->size() - off;
      ++iov_count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t wrote = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (wrote > 0) {
      ++flush_syscalls_;
      // Frame-granular progress accounting for a short write that may
      // stop mid-iovec: pop every fully-written frame, advance front_off
      // into the first partial one. No byte is resent, no frame dropped —
      // the next gather resumes exactly where the kernel stopped.
      std::size_t w = static_cast<std::size_t>(wrote);
      while (w > 0) {
        const Bytes& front = *conn.pending.front();
        const std::size_t rem = front.size() - conn.front_off;
        if (w >= rem) {
          w -= rem;
          conn.pending_bytes -= front.size();
          conn.pending.pop_front();
          conn.front_off = 0;
          ++frames_flushed_;
        } else {
          conn.front_off += w;
          w = 0;
        }
      }
      if (static_cast<std::size_t>(wrote) < gathered) {
        return;  // kernel buffer full; POLLOUT will resume
      }
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // kernel buffer full; POLLOUT will resume
    }
    close_conn(conn);  // connection lost mid-write
    return;
  }
}

void TcpTransport::flush_dirty() {
  if (dirty_.empty()) return;
  // Swap out first: flush() can fail a dial whose retry path re-arms
  // timers, and future sends must be able to re-mark connections dirty.
  std::vector<Conn*> dirty;
  dirty.swap(dirty_);
  for (Conn* conn : dirty) {
    conn->dirty = false;
    if (conn->fd >= 0 && !conn->connecting && !conn->pending.empty()) {
      flush(*conn);
    }
  }
}

void TcpTransport::post(std::function<void()> fn) {
  {
    MutexLock lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  const std::uint8_t byte = 0;
  // A full pipe is fine — the loop is already signalled and will drain
  // posted_ regardless of how many wake bytes are in flight.
  [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
}

void TcpTransport::stop() {
  stop_.store(true, std::memory_order_relaxed);
  // Wake a loop parked in poll(2): without this byte a cross-thread stop()
  // only took effect once the idle poll timeout (up to 50 ms) expired.
  const std::uint8_t byte = 0;
  [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
}

void TcpTransport::run_posted() {
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(posted_mu_);
    tasks.swap(posted_);
  }
  for (auto& fn : tasks) {
    if (fn) fn();
  }
}

void TcpTransport::accept_all(int listen_fd, Conn::Role role) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    if (role == Conn::Role::kClient &&
        static_cast<std::size_t>(std::count_if(
            conns_.begin(), conns_.end(), [](const auto& c) {
              return c->role == Conn::Role::kClient && c->fd >= 0;
            })) >= kMaxClientConns) {
      ::close(fd);  // full house: shed load instead of exhausting fds
      ++stats_.dropped;
      continue;
    }
    set_stream_options(fd);
    conns_.push_back(std::make_unique<Conn>(role, fd));
    if (role == Conn::Role::kClient) {
      conns_.back()->client_id = next_client_conn_++;
    }
  }
}

void TcpTransport::receive(Conn& conn) {
  std::uint8_t buf[64 * 1024];
  // A handler may close `conn` (a failed flush of its own reply), so the
  // socket is re-checked after every frame.
  while (conn.fd >= 0) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    bool ok = got > 0;  // otherwise EOF or a hard error
    if (ok) conn.decoder.feed(ByteSpan(buf, static_cast<std::size_t>(got)));
    Frame frame;
    while (ok && conn.fd >= 0) {
      const auto status = conn.decoder.next(frame);
      if (status == FrameDecoder::Status::kNeedMore) break;
      ok = status == FrameDecoder::Status::kFrame && dispatch(conn, frame);
    }
    if (!ok) {
      close_conn(conn);
      return;
    }
  }
}

bool TcpTransport::dispatch(Conn& conn, const Frame& frame) {
  if (conn.role == Conn::Role::kClient) {
    if (client_handler_) {
      ++stats_.delivered;
      client_handler_(conn.client_id, frame.tag, frame.payload);
    }
    return true;
  }
  // Sender pinning: a connection speaks for exactly one replica.
  // Out-of-range ids, this node's own id (we never dial ourselves) and
  // mismatches against an established binding are hostile — poison the
  // stream rather than let one socket impersonate many "distinct
  // senders".
  if (frame.sender == 0 || frame.sender > cfg_.n ||
      frame.sender == cfg_.self ||
      (conn.peer != 0 && frame.sender != conn.peer)) {
    ++stats_.dropped;
    return false;
  }
  conn.peer = frame.sender;
  if (handler_) {
    ++stats_.delivered;
    handler_(frame.sender, frame.tag, frame.payload);
  }
  return true;
}

void TcpTransport::fire_due_timers() {
  const TimePoint now = now_us();
  while (!timers_.empty() && timers_.top().at <= now) {
    // Copy out before pop: the callback may set new timers.
    auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
    timers_.pop();
    if (fn) fn();
  }
}

int TcpTransport::poll_timeout_ms() const {
  if (timers_.empty()) return 50;
  const TimePoint now = now_us();
  if (timers_.top().at <= now) return 0;
  const Duration wait = timers_.top().at - now;
  return static_cast<int>(std::min<Duration>(wait / 1000 + 1, 50));
}

bool TcpTransport::run_until(const std::function<bool()>& done,
                             Duration max_wall) {
  ThreadRoleGuard role(loop_thread_);  // this thread IS the loop thread now
  const TimePoint deadline = now_us() + max_wall;
  while (!stop_.load(std::memory_order_relaxed)) {
    fire_due_timers();
    run_posted();
    // Coalesced write-out of everything queued since the last poll —
    // protocol callbacks, timers, posted tasks and client replies alike —
    // so each connection gets at most one sendmsg before the loop parks
    // (and nothing is left unwritten if done() ends the run below).
    flush_dirty();
    // dirty_ is empty now, so closed accepted and client connections can
    // go; dialed ones outlive their sockets and keep their queues.
    std::erase_if(conns_, [](const auto& c) {
      return c->fd < 0 && c->role != Conn::Role::kDialed;
    });
    if (done && done()) return true;
    if (now_us() >= deadline) break;

    // fds[0..2]: peer listener, post() wake pipe, client listener (-1
    // when disabled, which poll(2) ignores); then one entry per open
    // connection in conns_ order.
    std::vector<pollfd> fds = {{listen_fd_, POLLIN, 0},
                               {wake_pipe_[0], POLLIN, 0},
                               {client_listen_fd_, POLLIN, 0}};
    constexpr std::size_t kConnBase = 3;
    std::vector<Conn*> polled;
    for (auto& conn : conns_) {
      if (conn->fd < 0) continue;
      short events = POLLOUT;  // a connect in flight completes as POLLOUT
      if (!conn->connecting) {
        events = POLLIN;
        if (!conn->pending.empty()) events |= POLLOUT;
      }
      fds.push_back(pollfd{conn->fd, events, 0});
      polled.push_back(conn.get());
    }

    const int rc = ::poll(fds.data(), fds.size(), poll_timeout_ms());
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    // Listeners first; new connections are polled from the next turn.
    if (fds[0].revents & POLLIN) accept_all(listen_fd_, Conn::Role::kAccepted);
    if (fds[1].revents & POLLIN) {
      std::uint8_t buf[256];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[2].revents & POLLIN) {
      accept_all(client_listen_fd_, Conn::Role::kClient);
    }

    for (std::size_t i = 0; i < polled.size(); ++i) {
      Conn& conn = *polled[i];
      const short revents = fds[kConnBase + i].revents;
      if (revents == 0 || conn.fd < 0) continue;
      if (conn.connecting) {
        if (revents & (POLLOUT | POLLERR | POLLHUP)) finish_dial(conn);
        continue;
      }
      // Read before honoring HUP: a peer may flush data and close.
      if (revents & POLLIN) {
        receive(conn);
      } else if (revents & (POLLERR | POLLHUP)) {
        close_conn(conn);
      }
      if (conn.fd >= 0 && (revents & POLLOUT)) flush(conn);
    }
  }
  return done ? done() : false;
}

}  // namespace probft::net
