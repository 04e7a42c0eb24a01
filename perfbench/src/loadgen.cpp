#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <thread>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"

namespace perfbench {
namespace {

using probft::Bytes;
using probft::ByteSpan;
namespace net = probft::net;

constexpr std::int64_t kRetryAfter = 2 * kSec;
constexpr std::int64_t kMaxRetryAfter = 8 * kSec;
constexpr std::int64_t kRejectBackoff = 50 * kMs;
constexpr std::int64_t kOpTimeout = 15 * kSec;
constexpr double kRetryRate = 2000.0;  // re-sends per second (and burst)
constexpr std::int64_t kMaxWait = kMs;  // poll granularity cap

int dial(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

LoadGen::LoadGen(std::vector<Endpoint> servers, std::uint64_t seed,
                 std::uint64_t client_base)
    : endpoints_(std::move(servers)),
      conns_(endpoints_.size()),
      seed_(seed),
      client_base_(client_base),
      tokens_(kRetryRate),
      tokens_at_(now_ns()),
      rxbuf_(64 * 1024) {}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

bool LoadGen::connect(std::int64_t deadline,
                      const std::function<bool()>& abort) {
  for (std::size_t s = 0; s < conns_.size(); ++s) {
    while ((conns_[s].fd = dial(endpoints_[s])) < 0) {
      check_interrupted();
      if (now_ns() >= deadline || (abort && abort())) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return true;
}

std::int64_t LoadGen::probe(std::int64_t deadline,
                            const std::vector<std::size_t>& servers) {
  const std::uint64_t before = counters_.writes_ok;
  for (const std::size_t server : servers) {
    issue(take_idle(), now_ns(), server);
  }
  while (busy_ > 0 && now_ns() < deadline) {
    check_interrupted();
    fire_retries(now_ns());
    flush_all();
    poll_once(kMaxWait);
  }
  return counters_.writes_ok == before + servers.size() ? last_done_ : 0;
}

void LoadGen::run(const Phase& phase, const std::function<void()>& on_kill) {
  phase_ = phase;
  phase_writes_ = 0;
  const std::int64_t start = now_ns();
  phase_end_ = start + phase.duration_ns;
  offering_ = true;
  if (phase.record) {
    window_start_ = start;
    window_end_ = phase_end_;
  }
  std::int64_t kill_at =
      phase.kill_after_ns >= 0 ? start + phase.kill_after_ns : -1;
  if (!phase.open_loop) {
    while (clients_.size() < phase.clients) idle_.push_back(new_client());
    std::vector<std::size_t> ready;
    ready.swap(idle_);
    for (const std::size_t idx : ready) issue(idx, start);
  }
  const double interval = phase.open_loop ? 1e9 / phase.rate : 0.0;
  std::uint64_t next_op = 0;
  const auto due_of = [start, interval](std::uint64_t i) -> std::int64_t {
    return start + std::llround(static_cast<double>(i) * interval);
  };
  while (true) {
    check_interrupted();
    std::int64_t now = now_ns();
    if (kill_at >= 0 && now >= kill_at) {
      kill_time_ = now;
      if (on_kill) on_kill();
      kill_at = -1;
      now = now_ns();
    }
    if (phase.open_loop) {
      for (std::int64_t due = due_of(next_op);
           due <= now && due < phase_end_; due = due_of(++next_op)) {
        issue(take_idle(), due);
      }
    }
    fire_retries(now);
    flush_all();
    if (write_budget_spent()) phase_end_ = std::min(phase_end_, now);
    if (now >= phase_end_) break;
    std::int64_t next = phase_end_;
    if (phase.open_loop) next = std::min(next, due_of(next_op));
    if (kill_at >= 0) next = std::min(next, kill_at);
    if (!retries_.empty()) next = std::min(next, retries_.top().at);
    poll_once(std::clamp<std::int64_t>(next - now, 0, kMaxWait));
  }
  if (phase.record) window_end_ = phase_end_;
  offering_ = false;
}

bool LoadGen::write_budget_spent() const {
  return phase_.max_writes > 0 && phase_writes_ >= phase_.max_writes;
}

void LoadGen::drain() {
  offering_ = false;
  const std::int64_t give_up = now_ns() + kOpTimeout + kSec;
  while (busy_ > 0) {
    check_interrupted();
    const std::int64_t now = now_ns();
    if (now >= give_up) {
      for (std::size_t idx = 0; idx < clients_.size(); ++idx) {
        if (clients_[idx].busy) complete(idx, Outcome::kTimedOut);
      }
      break;
    }
    fire_retries(now);
    flush_all();
    std::int64_t next = now + kMaxWait;
    if (!retries_.empty()) next = std::min(next, retries_.top().at);
    poll_once(std::clamp<std::int64_t>(next - now, 0, kMaxWait));
  }
}

std::size_t LoadGen::new_client() {
  Client client;
  client.id = client_base_ + clients_.size();
  client.rng = Rng(probft::mix64(seed_, client.id));
  clients_.push_back(std::move(client));
  return clients_.size() - 1;
}

std::size_t LoadGen::take_idle() {
  if (idle_.empty()) return new_client();
  const std::size_t idx = idle_.back();
  idle_.pop_back();
  return idx;
}

void LoadGen::issue(std::size_t idx, std::int64_t due) {
  issue(idx, due, first_live());
}

void LoadGen::issue(std::size_t idx, std::int64_t due, std::size_t server) {
  Client& c = clients_[idx];
  c.busy = true;
  ++busy_;
  c.record = offering_ && phase_.record;
  c.due = due;
  c.sent = 0;
  c.attempts = 0;
  c.read = offering_ && phase_.read_frac > 0.0 && !c.written.empty() &&
           c.rng.uniform() < phase_.read_frac;
  if (c.read) {
    const auto& [key, value] = c.written[c.rng.next() % c.written.size()];
    c.seq = ++next_read_id_;
    c.body = key;
    c.expect = value;
  } else {
    if (offering_) ++phase_writes_;
    c.seq = c.next_seq++;
    char buf[80];
    const int len = std::snprintf(
        buf, sizeof(buf), "k%llu.%llu=%016llx",
        static_cast<unsigned long long>(c.id),
        static_cast<unsigned long long>(c.seq),
        static_cast<unsigned long long>(c.rng.next()));
    c.body.assign(buf, buf + len);
    c.expect = c.body;  // the reply echoes the executed payload
  }
  c.server = server;
  ++counters_.attempted;
  transmit(idx, /*move_on_timeout=*/true);
}

void LoadGen::transmit(std::size_t idx, bool move_on_timeout) {
  Client& c = clients_[idx];
  const std::int64_t now = now_ns();
  if (c.sent == 0) c.sent = now;
  Bytes body;
  std::uint8_t tag = 0;
  if (c.read) {
    net::ReadRequest request;
    request.client_id = c.id;
    request.read_id = c.seq;
    request.consistency = net::ReadConsistency::kLinearizable;
    request.key = c.body;
    body = request.encode();
    tag = net::kClientReadTag;
  } else {
    net::ClientRequest request;
    request.client_id = c.id;
    request.seq = c.seq;
    request.payload = c.body;
    body = request.encode();
    tag = net::kClientRequestTag;
  }
  Conn& conn = conns_[c.server];
  if (conn.fd >= 0) {
    const Bytes frame =
        net::encode_frame(0, tag, ByteSpan(body.data(), body.size()));
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  }
  const std::int64_t wait =
      std::min(kMaxRetryAfter, kRetryAfter << std::min<std::uint32_t>(
                                   c.attempts, 2));
  retries_.push(Retry{std::min(now + wait, c.due + kOpTimeout), idx, ++c.gen,
                      move_on_timeout});
}

void LoadGen::reject(std::size_t idx) {
  Client& c = clients_[idx];
  ++counters_.rejected;
  c.server = next_live(c.server);
  const std::int64_t backoff =
      kRejectBackoff << std::min<std::uint32_t>(c.attempts, 5);
  retries_.push(Retry{std::min(now_ns() + backoff, c.due + kOpTimeout), idx,
                      ++c.gen, false});
}

void LoadGen::complete(std::size_t idx, Outcome outcome) {
  Client& c = clients_[idx];
  const std::int64_t now = now_ns();
  c.busy = false;
  --busy_;
  ++c.gen;
  const bool ok = outcome == Outcome::kOk;
  if (ok) {
    last_done_ = now;
    if (now >= window_start_ && now < window_end_) ++counters_.window_done;
    if (c.read) {
      ++counters_.reads_ok;
    } else {
      ++counters_.writes_ok;
      if (phase_.read_frac > 0.0) {
        const auto eq = std::find(c.body.begin(), c.body.end(), '=');
        c.written.emplace_back(Bytes(c.body.begin(), eq),
                               Bytes(eq + 1, c.body.end()));
      }
    }
  } else if (outcome == Outcome::kWrong) {
    ++counters_.wrong;
  } else {
    ++counters_.timed_out;
  }
  if (c.record) {
    samples_.push_back(
        OpSample{c.read, ok, c.id, c.seq, c.due, c.sent, ok ? now : 0});
  }
  if (offering_ && !phase_.open_loop && now < phase_end_ &&
      !write_budget_spent()) {
    issue(idx, now);
  } else {
    idle_.push_back(idx);
  }
}

void LoadGen::fire_retries(std::int64_t now) {
  tokens_ = std::min(kRetryRate,
                     tokens_ + static_cast<double>(now - tokens_at_) *
                                   kRetryRate / 1e9);
  tokens_at_ = now;
  while (!retries_.empty() && retries_.top().at <= now) {
    const Retry r = retries_.top();
    retries_.pop();
    Client& c = clients_[r.client];
    if (!c.busy || r.gen != c.gen) continue;  // answered or superseded
    if (now >= c.due + kOpTimeout) {
      complete(r.client, Outcome::kTimedOut);
      continue;
    }
    if (tokens_ < 1.0) {
      retries_.push(Retry{now + kMs, r.client, r.gen, r.move});
      continue;
    }
    tokens_ -= 1.0;
    if (r.move) c.server = next_live(c.server);
    ++c.attempts;
    ++counters_.retries;
    transmit(r.client, /*move_on_timeout=*/true);
  }
}

void LoadGen::poll_once(std::int64_t wait_ns) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> which;
  for (std::size_t s = 0; s < conns_.size(); ++s) {
    const Conn& conn = conns_[s];
    if (conn.fd < 0) continue;
    const short events = static_cast<short>(
        POLLIN | (conn.off < conn.out.size() ? POLLOUT : 0));
    fds.push_back(pollfd{conn.fd, events, 0});
    which.push_back(s);
  }
  const timespec ts{static_cast<time_t>(wait_ns / kSec),
                    static_cast<long>(wait_ns % kSec)};
  if (fds.empty()) {
    ::nanosleep(&ts, nullptr);
    return;
  }
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if ((fds[k].revents & POLLOUT) != 0) flush(which[k]);
    if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      read_conn(which[k]);
    }
  }
}

void LoadGen::read_conn(std::size_t s) {
  while (conns_[s].fd >= 0) {
    const ssize_t got =
        ::recv(conns_[s].fd, rxbuf_.data(), rxbuf_.size(), MSG_DONTWAIT);
    if (got > 0) {
      Conn& conn = conns_[s];
      conn.decoder.feed(ByteSpan(rxbuf_.data(), static_cast<std::size_t>(got)));
      net::Frame frame;
      while (conn.decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
        handle_frame(frame);
      }
      if (conn.decoder.corrupted()) {
        close_conn(s);
        return;
      }
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_conn(s);  // EOF or hard error: the server is gone
    return;
  }
}

void LoadGen::flush(std::size_t s) {
  Conn& conn = conns_[s];
  while (conn.fd >= 0 && conn.off < conn.out.size()) {
    const ssize_t wrote =
        ::send(conn.fd, conn.out.data() + conn.off, conn.out.size() - conn.off,
               MSG_DONTWAIT | MSG_NOSIGNAL);
    if (wrote > 0) {
      conn.off += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_conn(s);
    return;
  }
  conn.out.clear();
  conn.off = 0;
}

void LoadGen::flush_all() {
  for (std::size_t s = 0; s < conns_.size(); ++s) flush(s);
}

void LoadGen::close_conn(std::size_t s) {
  Conn& conn = conns_[s];
  if (conn.fd < 0) return;
  ::close(conn.fd);
  conn.fd = -1;
  conn.out.clear();
  conn.off = 0;
  conn.decoder = net::FrameDecoder();
  // Re-send what was in flight there once, to the next live server.
  for (std::size_t idx = 0; idx < clients_.size(); ++idx) {
    Client& c = clients_[idx];
    if (!c.busy || c.server != s) continue;
    c.server = next_live(s);
    ++c.attempts;
    ++counters_.retries;
    transmit(idx, /*move_on_timeout=*/true);
  }
}

void LoadGen::handle_frame(const net::Frame& frame) {
  try {
    const ByteSpan payload(frame.payload.data(), frame.payload.size());
    if (frame.tag == net::kClientReplyTag) {
      const auto reply = net::ClientReply::decode(payload);
      Client* c = lookup(reply.client_id);
      if (c == nullptr || !c->busy || c->read || c->seq != reply.seq) {
        return;  // a duplicate answer to a retried request
      }
      const auto idx = static_cast<std::size_t>(c - clients_.data());
      if (reply.status != net::ReplyStatus::kExecuted) {
        reject(idx);
        return;
      }
      complete(idx, reply.result == c->expect ? Outcome::kOk : Outcome::kWrong);
    } else if (frame.tag == net::kClientReadReplyTag) {
      const auto reply = net::ReadReply::decode(payload);
      Client* c = lookup(reply.client_id);
      if (c == nullptr || !c->busy || !c->read || c->seq != reply.read_id) {
        return;
      }
      const auto idx = static_cast<std::size_t>(c - clients_.data());
      if (reply.status != net::ReplyStatus::kExecuted) {
        reject(idx);
        return;
      }
      complete(idx, reply.value == c->expect ? Outcome::kOk : Outcome::kWrong);
    }
  } catch (const probft::CodecError&) {
    // An undecodable answer: the op stays in flight and times out.
  }
}

LoadGen::Client* LoadGen::lookup(std::uint64_t client_id) {
  if (client_id < client_base_ || client_id - client_base_ >= clients_.size()) {
    return nullptr;
  }
  return &clients_[client_id - client_base_];
}

std::size_t LoadGen::next_live(std::size_t from) const {
  for (std::size_t k = 1; k <= conns_.size(); ++k) {
    const std::size_t s = (from + k) % conns_.size();
    if (conns_[s].fd >= 0) return s;
  }
  return from;
}

std::size_t LoadGen::first_live() const {
  for (std::size_t s = 0; s < conns_.size(); ++s) {
    if (conns_[s].fd >= 0) return s;
  }
  return 0;
}

}  // namespace perfbench
