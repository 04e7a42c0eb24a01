// SMR client: submits requests to a probft_node cluster's client ports
// and measures end-to-end (submit → executed reply) latency.
//
//   ./probft_client --servers 127.0.0.1:9101,127.0.0.1:9102,...
//       [--requests N] [--client-id C] [--mode closed|open]
//       [--retry-ms R] [--timeout-ms T] [--force-retry 1]
//
// Requests are ClientRequest{client_id, seq, payload} frames
// (net/client.hpp over net/frame.hpp). The client targets the first
// server (the round-robin view-1 leader in a fresh cluster) and retries
// unanswered requests against every server after --retry-ms — duplicate
// submissions are safe because the SMR layer executes each (client, seq)
// at most once and re-answers executed retries from its reply cache.
// --force-retry deterministically sends the first request twice (the
// cluster harness uses it to assert exactly-once execution under client
// retries). A request counts as completed on its first reply; later
// replies for the same seq are counted as duplicates, not completions.
//
// Closed-loop mode keeps one request outstanding (latency-oriented);
// open-loop fires everything up front (throughput-oriented). Exit 0 iff
// every request got a reply. Summary lines:
//   CLIENT ok requests=N replies=N retries=R duplicates=D wall_ms=...
//   LATENCY p50_us=... p90_us=... p99_us=...
//
// --shards S (default 1) matches probft_node --shards S: the client
// computes each payload's owning group through the same placement hash
// the replicas use and targets that group's view-1 leader
// (lead_replica(s, n)) — server 1 when S = 1. With S > 1, --servers must
// list every replica's client port in replica order, and per-shard
// accounting is printed in stable ascending shard order, one line per
// shard:
//   SHARD s=<s> requests=... replies=... retries=... p50_us=...
//
// --dtx D appends D cross-shard transactions after the ordinary
// requests: each is a "DTX1" request carrying one key per shard (keys
// are mined so placement scatters them across ALL S groups), sent to
// the coordinator shard's leader, and counts as completed when the
// cluster answers dtx-committed or dtx-aborted. Summary:
//   DTXCLIENT requests=D committed=C aborted=A
//
// --read-ratio R (0 ≤ R < 1, against probft_node --reads) interleaves
// reads so that reads make up fraction R of all operations: after each
// completed write the client accrues R/(1-R) of read debt (Bresenham —
// deterministic, no RNG) and issues one closed-loop read per whole unit,
// keyed by that write's own payload, so every read has a known expected
// value. --consistency picks the mode (linearizable | sequential |
// stale-ok); sequential reads carry min_index = the write's reply slot
// + 1, which is exactly the client's read-your-writes bound. A read is
// retried against the next server on an explicit kRejected/kRedirect
// reply or after --retry-ms of silence. In open-loop mode the reads
// trail the write burst (a read's key must have executed) but follow the
// same debt schedule. Summary line:
//   READS ok consistency=... attempted=A executed=E rejected=J
//       retries=T p50_us=...
//
// Replies carry an explicit status byte (client wire v2): a write
// answered kRejected/kRejected-redirect is NOT completed — it pulls the
// retry timer forward (floored at 100 ms so a rejecting server cannot
// make the client spin) and the request is re-sent to every server.
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "shard/dtx.hpp"
#include "shard/placement.hpp"

namespace {

using namespace probft;

struct Options {
  std::vector<std::pair<std::string, std::uint16_t>> servers;
  std::uint64_t requests = 16;
  std::uint64_t client_id = 77'001;
  bool open_loop = false;
  std::uint64_t retry_ms = 2'000;
  std::uint64_t timeout_ms = 30'000;
  bool force_retry = false;
  std::uint32_t shards = 1;  // > 1 = route by placement hash
  std::uint64_t dtx = 0;     // cross-shard transactions to append
  double read_ratio = 0.0;   // fraction of ops that are reads
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

std::uint64_t parse_u64(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    throw std::invalid_argument(text);
  }
  std::size_t consumed = 0;
  const std::uint64_t value = std::stoull(text, &consumed);
  if (consumed != text.size()) throw std::invalid_argument(text);
  return value;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--servers") {
      std::size_t pos = 0;
      while (pos < value.size()) {
        const std::size_t comma = value.find(',', pos);
        const std::string entry = value.substr(pos, comma - pos);
        const std::size_t colon = entry.rfind(':');
        if (colon == std::string::npos || colon == 0) return false;
        opt.servers.emplace_back(
            entry.substr(0, colon),
            static_cast<std::uint16_t>(parse_u64(entry.substr(colon + 1))));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (key == "--requests") {
      opt.requests = parse_u64(value);
    } else if (key == "--client-id") {
      opt.client_id = parse_u64(value);
    } else if (key == "--mode") {
      if (value == "closed") {
        opt.open_loop = false;
      } else if (value == "open") {
        opt.open_loop = true;
      } else {
        return false;
      }
    } else if (key == "--retry-ms") {
      opt.retry_ms = parse_u64(value);
    } else if (key == "--timeout-ms") {
      opt.timeout_ms = parse_u64(value);
    } else if (key == "--force-retry") {
      opt.force_retry = value == "1" || value == "true";
    } else if (key == "--shards") {
      const std::uint64_t shards = parse_u64(value);
      if (shards < 1 || shards > probft::shard::kMaxShards) return false;
      opt.shards = static_cast<std::uint32_t>(shards);
    } else if (key == "--dtx") {
      opt.dtx = parse_u64(value);
    } else if (key == "--read-ratio") {
      std::size_t consumed = 0;
      const double ratio = std::stod(value, &consumed);
      if (consumed != value.size() || ratio < 0.0 || ratio >= 1.0) {
        return false;
      }
      opt.read_ratio = ratio;
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
  return !opt.servers.empty() && opt.requests + opt.dtx >= 1;
}

/// One connection per server; a dead connection stays closed (fd < 0) and
/// its server simply never answers — retries cover the rest.
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
                   "[--requests N] [--client-id C] [--mode closed|open] "
                   "[--retry-ms R] [--timeout-ms T] [--force-retry 1] "
                   "[--shards S] [--dtx D] [--read-ratio R] "
                   "[--consistency linearizable|sequential|stale-ok]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }

  const std::uint64_t deadline = now_us() + opt.timeout_ms * 1000;

  // Dial every server (with retries — node processes may still be
  // binding their client ports).
  std::vector<ServerConn> servers(opt.servers.size());
  for (std::size_t i = 0; i < servers.size(); ++i) {
    while (servers[i].fd < 0 && now_us() < deadline) {
      servers[i].fd = dial(opt.servers[i].first, opt.servers[i].second);
      if (servers[i].fd < 0) ::usleep(100'000);
    }
  }
  if (servers[0].fd < 0) {
    std::fprintf(stderr, "cannot reach primary server\n");
    return 1;
  }

  // Per-seq payload / routing tables. Ordinary requests (1..requests)
  // hash to their owning shard via the placement layer; seqs past that
  // are cross-shard dtx requests carrying one mined key per shard, sent
  // to their coordinator shard's leader. With --shards 1 every primary
  // is the one group's view-1 leader, server 0.
  const std::uint64_t n_requests = opt.requests;
  const std::uint64_t total = opt.requests + opt.dtx;
  const auto n_replicas = static_cast<std::uint32_t>(servers.size());
  shard::ShardMap map;
  map.shard_count = opt.shards;
  const auto span = [](const Bytes& b) {
    return ByteSpan(b.data(), b.size());
  };
  std::vector<Bytes> payloads(total + 1);
  std::vector<shard::ShardId> shard_for(total + 1, 0);
  std::vector<std::size_t> primary(total + 1, 0);
  for (std::uint64_t seq = 1; seq <= n_requests; ++seq) {
    payloads[seq] = to_bytes("req-" + std::to_string(opt.client_id) + "-" +
                             std::to_string(seq));
    shard_for[seq] = shard::shard_of(map, span(payloads[seq]));
    primary[seq] = shard::lead_replica(shard_for[seq], n_replicas) - 1;
  }
  for (std::uint64_t j = 0; j < opt.dtx; ++j) {
    const std::uint64_t seq = n_requests + 1 + j;
    // One key per shard, mined by nonce, so every group participates and
    // the transaction is genuinely cross-shard.
    std::vector<Bytes> keys;
    for (shard::ShardId s = 0; s < opt.shards; ++s) {
      for (std::uint64_t nonce = 0;; ++nonce) {
        Bytes key = to_bytes("dtx-" + std::to_string(opt.client_id) + "-" +
                             std::to_string(j) + "-" + std::to_string(nonce));
        if (shard::shard_of(map, span(key)) == s) {
          keys.push_back(std::move(key));
          break;
        }
      }
    }
    shard_for[seq] = shard::shard_of(map, span(keys.front()));
    primary[seq] = shard::lead_replica(shard_for[seq], n_replicas) - 1;
    payloads[seq] = shard::DtxCoordinator::encode_request(keys);
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
  std::uint64_t dtx_committed = 0, dtx_aborted = 0;
  // An explicit kRejected/kRedirect write reply pulls the retry timer
  // forward instead of waiting out --retry-ms; earliest_retry floors the
  // hinted retries at 100 ms so a rejecting server cannot spin the client.
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
  struct ShardStats {
    std::uint64_t requests = 0, replies = 0, retries = 0;
    std::vector<std::uint64_t> latencies;
  };
  std::vector<ShardStats> per_shard(opt.shards);
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
              // Explicit refusal (no lease / no quorum / wrong shard):
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
            // Backpressure or redirect: the request did NOT execute.
            // Leave it incomplete and hint the retry loop.
            retry_hint = true;
            continue;
          }
          completed[reply.seq] = true;
          write_slot[reply.seq] = reply.slot;
          ++replies;
          const std::uint64_t latency = now_us() - sent_at[reply.seq];
          latencies.push_back(latency);
          ShardStats& shard_stats = per_shard[shard_for[reply.seq]];
          ++shard_stats.replies;
          shard_stats.latencies.push_back(latency);
          if (reply.seq > n_requests) {
            const std::string outcome(reply.result.begin(),
                                      reply.result.end());
            if (outcome == "dtx-committed") {
              ++dtx_committed;
            } else {
              ++dtx_aborted;
            }
          }
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
    for (std::uint64_t seq = 1; seq <= upto; ++seq) {
      if (completed[seq]) continue;
      ++retries;
      ++per_shard[shard_for[seq]].retries;
      for (std::size_t s = 0; s < servers.size(); ++s) {
        send_request(s, seq, payloads[seq]);
      }
    }
  };
  const auto first_send = [&](std::uint64_t seq) {
    sent_at[seq] = now_us();
    ++per_shard[shard_for[seq]].requests;
    send_request(primary[seq], seq, payloads[seq]);
  };

  // One closed-loop read keyed by completed write `seq` — its payload is
  // the key and its own bytes are the expected value, so any server that
  // answers with something else would be visibly stale. Starts at the
  // write's primary (the lease holder for linearizable reads in a fresh
  // cluster) and rotates to the next server on an explicit rejection or
  // after --retry-ms of silence.
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
    std::size_t target = primary[seq];
    read_sent_at = now_us();
    send_read(target, read_id, payloads[seq], min_index);
    std::uint64_t next_retry = now_us() + opt.retry_ms * 1000;
    while (!pending_read_done && now_us() < deadline) {
      drain_replies(/*wait_ms=*/5);
      if (pending_read_bounced || now_us() >= next_retry) {
        pending_read_bounced = false;
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
    if (opt.read_ratio <= 0.0 || seq > n_requests) return;
    read_debt += opt.read_ratio / (1.0 - opt.read_ratio);
    while (read_debt >= 1.0 && now_us() < deadline) {
      read_debt -= 1.0;
      run_read(seq);
    }
  };

  if (opt.open_loop) {
    for (std::uint64_t seq = 1; seq <= total; ++seq) first_send(seq);
    if (opt.force_retry) {
      ++retries;
      ++per_shard[shard_for[1]].retries;
      send_request(servers.size() > 1 ? (primary[1] + 1) % servers.size() : 0,
                   1, payloads[1]);
    }
    std::uint64_t next_retry = now_us() + opt.retry_ms * 1000;
    while (replies < total && now_us() < deadline) {
      drain_replies(/*wait_ms=*/20);
      if ((retry_hint && now_us() >= earliest_retry) ||
          now_us() >= next_retry) {
        retry_hint = false;
        earliest_retry = now_us() + 100'000;
        retry_incomplete(total);
        next_retry = now_us() + opt.retry_ms * 1000;
      }
    }
    // Open loop cannot interleave (a read's key must have executed), so
    // the read schedule trails the whole burst.
    for (std::uint64_t seq = 1; seq <= n_requests; ++seq) {
      if (completed[seq]) reads_after_write(seq);
    }
  } else {
    for (std::uint64_t seq = 1; seq <= total && now_us() < deadline; ++seq) {
      first_send(seq);
      if (seq == 1 && opt.force_retry) {
        ++retries;
        ++per_shard[shard_for[1]].retries;
        send_request(
            servers.size() > 1 ? (primary[1] + 1) % servers.size() : 0, 1,
            payloads[1]);
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
  if (opt.shards > 1) {
    // Stable ascending shard order, one line per shard (empty included),
    // so harnesses can diff runs textually.
    for (std::uint32_t s = 0; s < opt.shards; ++s) {
      ShardStats& shard_stats = per_shard[s];
      std::sort(shard_stats.latencies.begin(), shard_stats.latencies.end());
      std::printf("SHARD s=%u requests=%llu replies=%llu retries=%llu "
                  "p50_us=%llu\n",
                  s, static_cast<unsigned long long>(shard_stats.requests),
                  static_cast<unsigned long long>(shard_stats.replies),
                  static_cast<unsigned long long>(shard_stats.retries),
                  quantile_of(shard_stats.latencies, 0.50));
    }
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
  if (opt.dtx > 0) {
    std::printf("DTXCLIENT requests=%llu committed=%llu aborted=%llu\n",
                static_cast<unsigned long long>(opt.dtx),
                static_cast<unsigned long long>(dtx_committed),
                static_cast<unsigned long long>(dtx_aborted));
  }
  for (auto& conn : servers) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  return ok ? 0 : 1;
}
