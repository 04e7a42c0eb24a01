// SMR client: submits requests to a probft_node cluster's client ports
// and measures end-to-end (submit → executed reply) latency.
//
//   ./probft_client --servers 127.0.0.1:9101,127.0.0.1:9102,...
//       [--requests N] [--client-id C]
//       [--retry-ms R] [--timeout-ms T] [--force-retry 1]
//
// Requests are ClientRequest{client_id, seq, payload} frames
// (net/client.hpp over net/frame.hpp). The client dials every server in
// repeated passes and starts once any of them accepts; servers missing
// then (still binding, or dead) are re-dialed at every retry round. It
// targets the first connected server (the round-robin view-1 leader in a
// fresh cluster) and retries unanswered requests against every server
// after --retry-ms — duplicate submissions are safe because the SMR
// layer executes each (client, seq) at most once and re-answers executed
// retries from its reply cache.
// --force-retry deterministically sends the first request twice (the
// cluster harness uses it to assert exactly-once execution under client
// retries). A request counts as completed on its first reply; later
// replies for the same seq are counted as duplicates, not completions.
//
// The client is closed-loop: one request outstanding at a time. Exit 0
// iff every request got a reply. Summary lines:
//   CLIENT ok requests=N replies=N retries=R duplicates=D wall_ms=...
//   LATENCY p50_us=... p90_us=... p99_us=...
//
// --read-ratio R (0 ≤ R < 1, against probft_node --reads) interleaves
// reads so that reads make up fraction R of all operations: after each
// completed write the client accrues R/(1-R) of read debt (Bresenham —
// deterministic, no RNG) and issues one closed-loop read per whole unit,
// keyed by that write's own payload, so every read has a known expected
// value. --consistency picks the mode (linearizable | sequential |
// stale-ok); sequential reads carry min_index = the write's reply slot
// + 1, which is exactly the client's read-your-writes bound. A read is
// retried against the next server on an explicit kRejected reply or
// after --retry-ms of silence. Summary line:
//   READS ok consistency=... attempted=A executed=E rejected=J
//       retries=T p50_us=...
//
// Replies carry an explicit status byte (client wire v2): a write
// answered kRejected is NOT completed — it pulls the retry timer forward
// (floored at 100 ms so a rejecting server cannot make the client spin)
// and the request is re-sent to every server.
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "common/codec.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"

namespace {

using namespace probft;

struct Options {
  std::vector<net::PeerAddress> servers;
  std::uint64_t requests = 16;
  std::uint64_t client_id = 77'001;
  std::uint64_t retry_ms = 2'000;
  std::uint64_t timeout_ms = 30'000;
  bool force_retry = false;
  double read_ratio = 0.0;  // fraction of ops that are reads
  net::ReadConsistency consistency = net::ReadConsistency::kLinearizable;
};

const char* consistency_name(net::ReadConsistency mode) {
  switch (mode) {
    case net::ReadConsistency::kLinearizable:
      return "linearizable";
    case net::ReadConsistency::kSequential:
      return "sequential";
    case net::ReadConsistency::kStaleOk:
      return "stale-ok";
  }
  return "?";
}

std::uint64_t now_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--servers") {
      opt.servers = cli::parse_host_ports(value);
    } else if (key == "--requests") {
      opt.requests = cli::parse_u64(value);
    } else if (key == "--client-id") {
      opt.client_id = cli::parse_u64(value);
    } else if (key == "--retry-ms") {
      opt.retry_ms = cli::parse_u64(value);
    } else if (key == "--timeout-ms") {
      opt.timeout_ms = cli::parse_u64(value);
    } else if (key == "--force-retry") {
      opt.force_retry = cli::parse_bool(value);
    } else if (key == "--read-ratio") {
      opt.read_ratio = cli::parse_double(value);
      if (opt.read_ratio < 0.0 || opt.read_ratio >= 1.0) {
        throw std::invalid_argument("bad read ratio " + value);
      }
    } else if (key == "--consistency") {
      if (value == "linearizable") {
        opt.consistency = net::ReadConsistency::kLinearizable;
      } else if (value == "sequential") {
        opt.consistency = net::ReadConsistency::kSequential;
      } else if (value == "stale-ok") {
        opt.consistency = net::ReadConsistency::kStaleOk;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return !opt.servers.empty() && opt.requests >= 1;
}

/// One connection per server; a missing or dead one (fd < 0) is re-dialed
/// at every retry round, and until then its server simply never answers.
struct ServerConn {
  int fd = -1;
  net::FrameDecoder decoder;
};

int dial(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &result) != 0 ||
      result == nullptr) {
    return -1;
  }
  int fd = ::socket(result->ai_family, SOCK_STREAM, 0);
  if (fd >= 0 &&
      ::connect(fd, result->ai_addr, result->ai_addrlen) != 0) {
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: probft_client --servers host:port,... "
                   "[--requests N] [--client-id C] "
                   "[--retry-ms R] [--timeout-ms T] [--force-retry 1] "
                   "[--read-ratio R] "
                   "[--consistency linearizable|sequential|stale-ok]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }

  const std::uint64_t deadline = now_us() + opt.timeout_ms * 1000;

  std::vector<ServerConn> servers(opt.servers.size());
  const auto redial = [&opt, &servers] {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (servers[i].fd >= 0) continue;
      servers[i].fd = dial(opt.servers[i].host, opt.servers[i].port);
      servers[i].decoder = net::FrameDecoder();
    }
  };
  const auto first_connected = [&servers]() -> std::size_t {
    std::size_t i = 0;
    while (i < servers.size() && servers[i].fd < 0) ++i;
    return i;
  };
  // Node processes may still be binding their client ports: dial in
  // passes until any server accepts.
  redial();
  while (first_connected() == servers.size() && now_us() < deadline) {
    ::usleep(100'000);
    redial();
  }
  if (first_connected() == servers.size()) {
    std::fprintf(stderr, "cannot reach any server\n");
    return 1;
  }

  const std::uint64_t total = opt.requests;
  std::vector<Bytes> payloads(total + 1);
  for (std::uint64_t seq = 1; seq <= total; ++seq) {
    payloads[seq] = to_bytes("req-" + std::to_string(opt.client_id) + "-" +
                             std::to_string(seq));
  }

  const auto send_frame = [&servers](std::size_t server, std::uint8_t tag,
                                     const Bytes& body) {
    if (servers[server].fd < 0) return;
    const Bytes frame =
        net::encode_frame(0, tag, ByteSpan(body.data(), body.size()));
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t wrote = ::send(servers[server].fd, frame.data() + off,
                                   frame.size() - off, MSG_NOSIGNAL);
      if (wrote <= 0) {
        ::close(servers[server].fd);
        servers[server].fd = -1;
        return;
      }
      off += static_cast<std::size_t>(wrote);
    }
  };
  const auto send_request = [&opt, &send_frame](std::size_t server,
                                                std::uint64_t seq,
                                                const Bytes& payload) {
    net::ClientRequest request;
    request.client_id = opt.client_id;
    request.seq = seq;
    request.payload = payload;
    send_frame(server, net::kClientRequestTag, request.encode());
  };
  const auto send_read = [&opt, &send_frame](std::size_t server,
                                             std::uint64_t read_id,
                                             const Bytes& key,
                                             std::uint64_t min_index) {
    net::ReadRequest request;
    request.client_id = opt.client_id;
    request.read_id = read_id;
    request.consistency = opt.consistency;
    request.min_index = min_index;
    request.key = key;
    send_frame(server, net::kClientReadTag, request.encode());
  };

  std::vector<bool> completed(total + 1, false);
  std::vector<std::uint64_t> sent_at(total + 1, 0);
  // Reply slot of each completed write — the read path's min_index bound
  // for sequential (read-your-writes) reads is slot + 1.
  std::vector<std::uint64_t> write_slot(total + 1, 0);
  std::vector<std::uint64_t> latencies;
  std::uint64_t replies = 0, retries = 0, duplicates = 0;
  // An explicit kRejected write reply pulls the retry timer forward
  // instead of waiting out --retry-ms; earliest_retry floors the hinted
  // retries at 100 ms so a rejecting server cannot spin the client.
  bool retry_hint = false;
  std::uint64_t earliest_retry = 0;
  // In-flight read state (reads are closed-loop: at most one pending).
  std::uint64_t reads_attempted = 0, reads_ok = 0, reads_rejected = 0,
                reads_stale = 0, read_retries = 0, next_read_id = 0;
  std::uint64_t pending_read_id = 0, read_sent_at = 0;
  const Bytes* pending_read_expect = nullptr;
  bool pending_read_done = false, pending_read_bounced = false;
  std::vector<std::uint64_t> read_latencies;
  double read_debt = 0.0;
  const std::uint64_t started = now_us();

  const auto drain_replies = [&](int wait_ms) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      if (servers[i].fd < 0) continue;
      fds.push_back(pollfd{servers[i].fd, POLLIN, 0});
      index.push_back(i);
    }
    if (fds.empty()) return;
    if (::poll(fds.data(), fds.size(), wait_ms) <= 0) return;
    std::uint8_t buf[64 * 1024];
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      ServerConn& conn = servers[index[k]];
      const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got <= 0) {
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          ::close(conn.fd);
          conn.fd = -1;
        }
        continue;
      }
      conn.decoder.feed(ByteSpan(buf, static_cast<std::size_t>(got)));
      net::Frame frame;
      while (conn.decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
        if (frame.tag == net::kClientReadReplyTag) {
          try {
            const auto reply = net::ReadReply::decode(
                ByteSpan(frame.payload.data(), frame.payload.size()));
            if (reply.client_id != opt.client_id ||
                reply.read_id != pending_read_id || pending_read_done) {
              continue;
            }
            if (reply.status == net::ReplyStatus::kExecuted) {
              pending_read_done = true;
              // Each key is written exactly once with value == key, so a
              // non-stale executed answer must echo the expected bytes.
              if (pending_read_expect != nullptr &&
                  reply.value != *pending_read_expect) {
                ++reads_stale;
              } else {
                ++reads_ok;
                read_latencies.push_back(now_us() - read_sent_at);
              }
            } else {
              // Explicit refusal (no lease / no quorum):
              // bounce to the next server right away.
              ++reads_rejected;
              pending_read_bounced = true;
            }
          } catch (const CodecError&) {
            // Hostile/garbled read reply: ignore.
          }
          continue;
        }
        if (frame.tag != net::kClientReplyTag) continue;
        try {
          const auto reply = net::ClientReply::decode(
              ByteSpan(frame.payload.data(), frame.payload.size()));
          if (reply.client_id != opt.client_id || reply.seq == 0 ||
              reply.seq > total) {
            continue;
          }
          if (completed[reply.seq]) {
            ++duplicates;
            continue;
          }
          if (reply.status != net::ReplyStatus::kExecuted) {
            // Backpressure: the request did NOT execute.
            // Leave it incomplete and hint the retry loop.
            retry_hint = true;
            continue;
          }
          completed[reply.seq] = true;
          write_slot[reply.seq] = reply.slot;
          ++replies;
          latencies.push_back(now_us() - sent_at[reply.seq]);
        } catch (const CodecError&) {
          // Hostile/garbled reply: ignore.
        }
      }
      if (conn.decoder.corrupted()) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
  };

  const auto retry_incomplete = [&](std::uint64_t upto) {
    redial();
    for (std::uint64_t seq = 1; seq <= upto; ++seq) {
      if (completed[seq]) continue;
      ++retries;
      for (std::size_t s = 0; s < servers.size(); ++s) {
        send_request(s, seq, payloads[seq]);
      }
    }
  };
  const auto first_send = [&](std::uint64_t seq) {
    sent_at[seq] = now_us();
    send_request(first_connected() % servers.size(), seq, payloads[seq]);
  };

  // One closed-loop read keyed by completed write `seq` — its payload is
  // the key and its own bytes are the expected value, so any server that
  // answers with something else would be visibly stale. Starts at the
  // first connected server (the lease holder for linearizable reads in a
  // fresh cluster) and rotates to the next server on an explicit
  // rejection or after --retry-ms of silence, re-dialing missing servers
  // first.
  const auto run_read = [&](std::uint64_t seq) {
    const std::uint64_t read_id = ++next_read_id;
    const std::uint64_t min_index =
        write_slot[seq] > 0 ? write_slot[seq] + 1 : 0;
    pending_read_id = read_id;
    // stale-ok explicitly tolerates old views, so only the two
    // consistent modes assert the expected value.
    pending_read_expect =
        opt.consistency == net::ReadConsistency::kStaleOk ? nullptr
                                                          : &payloads[seq];
    pending_read_done = false;
    pending_read_bounced = false;
    ++reads_attempted;
    std::size_t target = first_connected() % servers.size();
    read_sent_at = now_us();
    send_read(target, read_id, payloads[seq], min_index);
    std::uint64_t next_retry = now_us() + opt.retry_ms * 1000;
    while (!pending_read_done && now_us() < deadline) {
      drain_replies(/*wait_ms=*/5);
      if (pending_read_bounced || now_us() >= next_retry) {
        pending_read_bounced = false;
        redial();
        target = (target + 1) % servers.size();
        ++read_retries;
        send_read(target, read_id, payloads[seq], min_index);
        next_retry = now_us() + opt.retry_ms * 1000;
      }
    }
  };
  // Bresenham read schedule: each completed write accrues R/(1-R) of
  // read debt; whole units become reads keyed by that write.
  const auto reads_after_write = [&](std::uint64_t seq) {
    if (opt.read_ratio <= 0.0) return;
    read_debt += opt.read_ratio / (1.0 - opt.read_ratio);
    while (read_debt >= 1.0 && now_us() < deadline) {
      read_debt -= 1.0;
      run_read(seq);
    }
  };

  for (std::uint64_t seq = 1; seq <= total && now_us() < deadline; ++seq) {
    first_send(seq);
    if (seq == 1 && opt.force_retry) {
      ++retries;
      send_request(servers.size() > 1 ? 1 : 0, 1, payloads[1]);
    }
    std::uint64_t next_retry = now_us() + opt.retry_ms * 1000;
    while (!completed[seq] && now_us() < deadline) {
      drain_replies(/*wait_ms=*/20);
      if ((retry_hint && now_us() >= earliest_retry) ||
          now_us() >= next_retry) {
        retry_hint = false;
        earliest_retry = now_us() + 100'000;
        retry_incomplete(seq);
        next_retry = now_us() + opt.retry_ms * 1000;
      }
    }
    if (completed[seq]) reads_after_write(seq);
  }
  const double wall_ms =
      static_cast<double>(now_us() - started) / 1000.0;

  const bool ok = replies == total && reads_ok == reads_attempted;
  std::printf("CLIENT %s requests=%llu replies=%llu retries=%llu "
              "duplicates=%llu wall_ms=%.1f\n",
              ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(replies),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(duplicates), wall_ms);
  const auto quantile_of = [](std::vector<std::uint64_t>& sorted, double q) {
    if (sorted.empty()) return 0ULL;
    const std::size_t idx = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
    return static_cast<unsigned long long>(sorted[idx]);
  };
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    std::printf("LATENCY p50_us=%llu p90_us=%llu p99_us=%llu\n",
                quantile_of(latencies, 0.50), quantile_of(latencies, 0.90),
                quantile_of(latencies, 0.99));
  }
  if (opt.read_ratio > 0.0) {
    std::sort(read_latencies.begin(), read_latencies.end());
    std::printf("READS %s consistency=%s attempted=%llu executed=%llu "
                "stale=%llu rejected=%llu retries=%llu p50_us=%llu\n",
                reads_ok == reads_attempted ? "ok" : "FAIL",
                consistency_name(opt.consistency),
                static_cast<unsigned long long>(reads_attempted),
                static_cast<unsigned long long>(reads_ok),
                static_cast<unsigned long long>(reads_stale),
                static_cast<unsigned long long>(reads_rejected),
                static_cast<unsigned long long>(read_retries),
                quantile_of(read_latencies, 0.50));
  }
  for (auto& conn : servers) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  return ok ? 0 : 1;
}
