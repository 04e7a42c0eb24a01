// TCP transport tests over real loopback sockets: basic delivery, late
// peer startup (reconnect-on-failure), write batching and the client
// port. Consensus over real sockets runs in real probft_node processes
// (the tcp_cluster_* ctests, scripts/run_tcp_cluster.sh). All wall-clock
// bounded well below the ctest timeout.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/tcp_transport.hpp"

namespace probft {
namespace {

using net::PeerAddress;
using net::TcpTransport;
using net::TcpTransportConfig;

std::unique_ptr<TcpTransport> make_node(ReplicaId self, std::uint32_t n) {
  TcpTransportConfig cfg;
  cfg.self = self;
  cfg.n = n;
  cfg.listen_host = "127.0.0.1";
  cfg.listen_port = 0;  // ephemeral
  return std::make_unique<TcpTransport>(std::move(cfg));
}

void cross_wire(std::vector<std::unique_ptr<TcpTransport>>& nodes) {
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    for (std::size_t j = 1; j < nodes.size(); ++j) {
      nodes[i]->set_peer(static_cast<ReplicaId>(j),
                         PeerAddress{"127.0.0.1", nodes[j]->listen_port()});
    }
  }
}

TEST(TcpTransport, PairDelivery) {
  std::vector<std::unique_ptr<TcpTransport>> nodes(3);
  nodes[1] = make_node(1, 2);
  nodes[2] = make_node(2, 2);
  cross_wire(nodes);

  std::atomic<int> received{0};
  Bytes seen;
  nodes[2]->register_handler(
      2, [&](ReplicaId from, std::uint8_t tag, const Bytes& payload) {
        EXPECT_EQ(from, 1U);
        EXPECT_EQ(tag, 7);
        seen = payload;
        received.fetch_add(1);
      });

  std::thread receiver([&]() {
    nodes[2]->run_until([&]() { return received.load() >= 1; },
                        /*max_wall=*/10'000'000);
  });
  nodes[1]->send(1, 2, 7, to_bytes("over-the-wire"));
  nodes[1]->run_until([&]() { return received.load() >= 1; }, 10'000'000);
  receiver.join();

  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(seen, to_bytes("over-the-wire"));
  EXPECT_EQ(nodes[1]->stats().sends, 1U);
  EXPECT_EQ(nodes[2]->stats().delivered, 1U);
}

// Regression (lock-discipline audit): stop() used to only flip the atomic,
// so a loop parked in poll(2) with no timers kept sleeping until the 50 ms
// idle timeout expired. stop() now also writes the wake pipe; a freshly
// parked loop must return well before that timeout. Best-of-N guards
// against a scheduler hiccup failing the test spuriously.
TEST(TcpTransport, CrossThreadStopWakesParkedLoop) {
  using Clock = std::chrono::steady_clock;
  auto best = std::chrono::milliseconds(1000);
  for (int run = 0; run < 3; ++run) {
    auto node = make_node(1, 1);
    std::thread loop([&]() {
      node->run_until([]() { return false; }, /*max_wall=*/5'000'000);
    });
    // Let the loop enter poll(2); with no timers its idle timeout is 50 ms,
    // so after 10 ms it still has ~40 ms of sleep left ahead of it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto t0 = Clock::now();
    node->stop();
    loop.join();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              t0);
    best = std::min(best, elapsed);
  }
  EXPECT_LT(best.count(), 25);
}

TEST(TcpTransport, SelfSendIsAsynchronousButDelivered) {
  auto node = make_node(1, 2);
  node->set_peer(1, PeerAddress{"127.0.0.1", node->listen_port()});
  bool got = false;
  node->register_handler(1,
                         [&](ReplicaId from, std::uint8_t tag, const Bytes&) {
                           EXPECT_EQ(from, 1U);
                           EXPECT_EQ(tag, 1);
                           got = true;
                         });
  node->send(1, 1, 1, to_bytes("note-to-self"));
  EXPECT_FALSE(got);  // never delivered reentrantly
  node->run_until([&]() { return got; }, 5'000'000);
  EXPECT_TRUE(got);
}

TEST(TcpTransport, QueuesUntilPeerComesUpLate) {
  // Node 1 sends while node 2 does not exist yet: the message queues, the
  // dial fails, and a later retry delivers once node 2 binds and runs.
  auto first = make_node(1, 2);
  // A port that is almost certainly closed right now: bind+close one.
  std::uint16_t port = 0;
  {
    auto probe = make_node(2, 2);
    port = probe->listen_port();
  }
  first->set_peer(2, PeerAddress{"127.0.0.1", port});
  first->send(1, 2, 9, to_bytes("early"));
  // Give the first dial time to fail (reconnect timer arms).
  first->run_until(nullptr, 150'000);

  // Now bring node 2 up on that exact port.
  TcpTransportConfig cfg;
  cfg.self = 2;
  cfg.n = 2;
  cfg.listen_host = "127.0.0.1";
  cfg.listen_port = port;
  TcpTransport second(std::move(cfg));
  std::atomic<bool> got{false};
  second.register_handler(
      2, [&](ReplicaId from, std::uint8_t, const Bytes& payload) {
        EXPECT_EQ(from, 1U);
        EXPECT_EQ(payload, to_bytes("early"));
        got.store(true);
      });

  std::thread receiver([&]() {
    second.run_until([&]() { return got.load(); }, 10'000'000);
  });
  first->run_until([&]() { return got.load(); }, 10'000'000);
  receiver.join();
  EXPECT_TRUE(got.load());
  EXPECT_GE(first->connects(), 1U);
}

TEST(TcpTransport, OversizePayloadIsDroppedAtTheSender) {
  // A frame the receiver's decoder would poison on must never be sent:
  // the sender counts it dropped instead of livelocking the link with
  // endless reconnect + identical-resend cycles.
  TcpTransportConfig cfg;
  cfg.self = 1;
  cfg.n = 2;
  cfg.listen_host = "127.0.0.1";
  TcpTransport node(std::move(cfg));
  node.set_peer(2, PeerAddress{"127.0.0.1", 1});
  node.send(1, 2, 1, Bytes(net::kDefaultMaxFramePayload + 1, 0xaa));
  EXPECT_EQ(node.stats().sends, 1U);  // the logical send was attempted
  EXPECT_EQ(node.stats().dropped, 1U);
  // At the cap: queues fine.
  node.send(1, 2, 1, Bytes(net::kDefaultMaxFramePayload, 0xbb));
  EXPECT_EQ(node.stats().dropped, 1U);
}

// ---- sender binding (anti-spoofing) ----

// Dials one of the node's listeners with a raw socket, as a hostile
// process or a client that is not a TcpTransport would. `rcvbuf` > 0
// shrinks the receive buffer before connecting (a client that never reads
// then stalls the sender after a few KiB).
int raw_dial(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

TEST(TcpTransport, InboundConnectionIsBoundToFirstClaimedSender) {
  // One socket may not speak for several replica ids. Before the binding
  // fix, a single Byzantine peer could stamp frames with every id over one
  // connection and counterfeit "f+1 distinct senders" for unsigned
  // traffic; now the first valid frame pins the connection and any later
  // mismatch kills the stream.
  auto node = make_node(1, 4);
  std::vector<std::pair<ReplicaId, Bytes>> got;
  node->register_handler(
      1, [&](ReplicaId from, std::uint8_t, const Bytes& payload) {
        got.emplace_back(from, payload);
      });

  const int fd = raw_dial(node->listen_port());
  ASSERT_GE(fd, 0);

  Bytes stream;
  const auto push = [&](ReplicaId sender, const char* text) {
    const Bytes payload = to_bytes(text);
    const Bytes frame = net::encode_frame(
        sender, 7, ByteSpan(payload.data(), payload.size()));
    stream.insert(stream.end(), frame.begin(), frame.end());
  };
  push(2, "voucher-a");      // first valid frame: binds the stream to 2
  push(2, "voucher-b");      // same claimed sender: delivered
  push(3, "forged");         // impersonates another replica: kills the stream
  push(2, "after-forgery");  // even the bound id gets nothing afterwards
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), 0),
            static_cast<ssize_t>(stream.size()));

  node->run_until([&]() { return node->stats().dropped >= 1; }, 10'000'000);

  ASSERT_EQ(got.size(), 2U);
  EXPECT_EQ(got[0].first, 2U);
  EXPECT_EQ(got[0].second, to_bytes("voucher-a"));
  EXPECT_EQ(got[1].first, 2U);
  EXPECT_EQ(got[1].second, to_bytes("voucher-b"));
  EXPECT_EQ(node->stats().delivered, 2U);
  EXPECT_EQ(node->stats().dropped, 1U);

  // The transport hung up on the mismatch: the attacker sees EOF.
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
}

TEST(TcpTransport, InboundFrameWithBogusSenderIsRejectedOutright) {
  // A first frame claiming the receiver's own id, id 0, or an id beyond n
  // never binds and never reaches the handler.
  for (const std::uint32_t claimed : {1U, 0U, 9U}) {
    auto node = make_node(1, 4);
    std::atomic<int> delivered{0};
    node->register_handler(
        1, [&](ReplicaId, std::uint8_t, const Bytes&) { ++delivered; });

    const int fd = raw_dial(node->listen_port());
    ASSERT_GE(fd, 0);
    const Bytes payload = to_bytes("spoof");
    const Bytes frame = net::encode_frame(
        claimed, 7, ByteSpan(payload.data(), payload.size()));
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));

    node->run_until([&]() { return node->stats().dropped >= 1; },
                    10'000'000);
    EXPECT_EQ(delivered.load(), 0) << "claimed sender " << claimed;
    EXPECT_EQ(node->stats().dropped, 1U) << "claimed sender " << claimed;

    char buf[8];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0)
        << "claimed sender " << claimed;
    ::close(fd);
  }
}

TEST(TcpTransport, TimersFireInOrder) {
  auto node = make_node(1, 2);
  std::vector<int> order;
  node->set_timer(30'000, [&]() { order.push_back(3); });
  node->set_timer(10'000, [&]() { order.push_back(1); });
  node->set_timer(20'000, [&]() { order.push_back(2); });
  node->run_until([&]() { return order.size() == 3; }, 5'000'000);
  ASSERT_EQ(order.size(), 3U);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

// ---- write batching (sendmsg/iovec coalescing) ----

TEST(TcpBatching, BurstCoalescesIntoFewSyscallsInOrder) {
  constexpr int kFrames = 200;
  std::vector<std::unique_ptr<TcpTransport>> nodes(3);
  nodes[1] = make_node(1, 2);
  nodes[2] = make_node(2, 2);
  cross_wire(nodes);

  std::atomic<int> received{0};
  int misordered = 0;
  nodes[2]->register_handler(
      2, [&](ReplicaId, std::uint8_t tag, const Bytes& payload) {
        const int expect = received.load();
        if (tag != static_cast<std::uint8_t>(expect & 0xff) ||
            payload != to_bytes("frame-" + std::to_string(expect))) {
          ++misordered;
        }
        received.fetch_add(1);
      });

  // Queue the whole burst inside one loop iteration (a timer callback),
  // the way a protocol broadcast fan-out queues frames: flush_dirty then
  // writes the burst with a handful of gathered sendmsg calls.
  nodes[1]->set_timer(0, [&]() {
    for (int i = 0; i < kFrames; ++i) {
      nodes[1]->send(1, 2, static_cast<std::uint8_t>(i & 0xff),
                     to_bytes("frame-" + std::to_string(i)));
    }
  });

  std::thread receiver([&]() {
    nodes[2]->run_until([&]() { return received.load() >= kFrames; },
                        20'000'000);
  });
  nodes[1]->run_until([&]() { return received.load() >= kFrames; },
                      20'000'000);
  receiver.join();

  EXPECT_EQ(received.load(), kFrames);
  EXPECT_EQ(misordered, 0);
  EXPECT_EQ(nodes[1]->frames_flushed(), static_cast<std::uint64_t>(kFrames));
  // 200 small frames queued in one iteration must not cost 200 syscalls;
  // with 64-iovec gathers the burst fits in a handful.
  EXPECT_LE(nodes[1]->flush_syscalls(), 20U);
}

TEST(TcpBatching, PartialWriteMidIovecLosesNothing) {
  // Frames far larger than the socket buffer force sendmsg to stop
  // mid-iovec; the progress accounting must resume exactly where the
  // kernel stopped — every frame arrives intact, in order, exactly once.
  constexpr int kFrames = 40;
  constexpr std::size_t kFrameLen = 128u << 10;  // 5 MiB total
  std::vector<std::unique_ptr<TcpTransport>> nodes(3);
  nodes[1] = make_node(1, 2);
  nodes[2] = make_node(2, 2);
  cross_wire(nodes);

  std::atomic<int> received{0};
  int corrupted = 0;
  nodes[2]->register_handler(
      2, [&](ReplicaId, std::uint8_t, const Bytes& payload) {
        const int i = received.load();
        bool ok = payload.size() == kFrameLen;
        for (std::size_t j = 0; ok && j < payload.size(); j += 4097) {
          ok = payload[j] == static_cast<std::uint8_t>(i * 31 + j);
        }
        if (!ok) ++corrupted;
        received.fetch_add(1);
      });

  nodes[1]->set_timer(0, [&]() {
    for (int i = 0; i < kFrames; ++i) {
      Bytes payload(kFrameLen);
      for (std::size_t j = 0; j < kFrameLen; ++j) {
        payload[j] = static_cast<std::uint8_t>(i * 31 + j);
      }
      nodes[1]->send(1, 2, 5, std::move(payload));
    }
  });

  std::thread receiver([&]() {
    nodes[2]->run_until([&]() { return received.load() >= kFrames; },
                        30'000'000);
  });
  nodes[1]->run_until([&]() { return received.load() >= kFrames; },
                      30'000'000);
  receiver.join();

  EXPECT_EQ(received.load(), kFrames);
  EXPECT_EQ(corrupted, 0);
  EXPECT_EQ(nodes[1]->frames_flushed(), static_cast<std::uint64_t>(kFrames));
}

TEST(TcpBatching, PostWakesTheLoopFromAnotherThread) {
  auto node = make_node(1, 2);
  std::atomic<bool> ran{false};
  std::thread poster([&]() {
    // Let the loop park in poll() first, then post from outside.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    node->post([&ran]() { ran.store(true); });
  });
  const bool done =
      node->run_until([&]() { return ran.load(); }, 5'000'000);
  poster.join();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ran.load());
}

// ---- client port (the SMR service listener) ----

std::unique_ptr<TcpTransport> make_client_node(ReplicaId self,
                                               std::uint32_t n) {
  TcpTransportConfig cfg;
  cfg.self = self;
  cfg.n = n;
  cfg.client_port_enabled = true;  // ephemeral; read back with client_port()
  return std::make_unique<TcpTransport>(std::move(cfg));
}

void send_frame(int fd, std::uint8_t tag, const Bytes& payload) {
  const Bytes frame =
      net::encode_frame(77, tag, ByteSpan(payload.data(), payload.size()));
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
}

// Reads until `count` frames decoded, EOF, an error or the 5 s receive
// timeout; returns what arrived.
std::vector<net::Frame> read_frames(int fd, std::size_t count) {
  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  std::uint8_t buf[64 * 1024];
  while (frames.size() < count) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    decoder.feed(ByteSpan(buf, static_cast<std::size_t>(got)));
    net::Frame frame;
    while (decoder.next(frame) == net::FrameDecoder::Status::kFrame) {
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

// True once the transport has hung up on `fd`: recv sees EOF or a reset
// rather than the receive timeout. Drains whatever was sent before.
bool hung_up(int fd) {
  std::uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got > 0) continue;
    return got == 0 || errno == ECONNRESET;
  }
}

// Runs a transport's loop on its own thread until stop(); the test thread
// meanwhile speaks to it through raw sockets only.
class LoopThread {
 public:
  explicit LoopThread(TcpTransport& node)
      : node_(node), thread_([this]() {
          node_.run_until(nullptr, /*max_wall=*/30'000'000);
        }) {}
  ~LoopThread() { stop(); }
  void stop() {
    if (!thread_.joinable()) return;
    node_.stop();
    thread_.join();
  }

 private:
  TcpTransport& node_;
  std::thread thread_;
};

struct ClientRequest {
  std::uint64_t conn;
  std::uint8_t tag;
  Bytes payload;
};

// Records every client request and echoes it back with tag + 1.
void echo_clients(TcpTransport& node, std::vector<ClientRequest>& log) {
  node.set_client_handler(
      [&node, &log](std::uint64_t conn, std::uint8_t tag,
                    const Bytes& payload) {
        log.push_back(ClientRequest{conn, tag, payload});
        node.send_to_client(conn, static_cast<std::uint8_t>(tag + 1),
                            payload);
      });
}

TEST(TcpClientPort, RequestsReachTheHandlerWithTheirConnectionId) {
  auto node = make_client_node(1, 1);
  ASSERT_NE(node->client_port(), 0);
  std::vector<ClientRequest> log;
  echo_clients(*node, log);
  LoopThread loop(*node);

  const int a = raw_dial(node->client_port());
  const int b = raw_dial(node->client_port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  // One request at a time, each answered before the next, so the handler
  // sees them in this order.
  const auto round_trip = [](int fd, std::uint8_t tag, const char* text) {
    send_frame(fd, tag, to_bytes(text));
    const auto echo = read_frames(fd, 1);
    ASSERT_EQ(echo.size(), 1U) << text;
    EXPECT_EQ(echo[0].sender, 1U) << text;
    EXPECT_EQ(echo[0].tag, tag + 1) << text;
    EXPECT_EQ(echo[0].payload, to_bytes(text));
  };
  round_trip(a, 10, "a-1");
  round_trip(b, 20, "b-1");
  round_trip(a, 30, "a-2");
  loop.stop();
  ::close(a);
  ::close(b);

  ASSERT_EQ(log.size(), 3U);
  EXPECT_EQ(log[0].tag, 10);
  EXPECT_EQ(log[0].payload, to_bytes("a-1"));
  EXPECT_EQ(log[1].tag, 20);
  EXPECT_EQ(log[1].payload, to_bytes("b-1"));
  EXPECT_EQ(log[2].tag, 30);
  EXPECT_EQ(log[2].payload, to_bytes("a-2"));
  EXPECT_NE(log[0].conn, 0U);
  EXPECT_EQ(log[0].conn, log[2].conn);  // same socket, same id
  EXPECT_NE(log[0].conn, log[1].conn);
  EXPECT_EQ(node->stats().delivered, 3U);
  EXPECT_EQ(node->stats().dropped, 0U);
}

TEST(TcpClientPort, RepliesArriveWholeAndInOrder) {
  // One request fans out into many replies of mixed sizes (up to 64 KiB,
  // ~6 MiB in all), queued inside one callback: each must arrive intact,
  // in the order send_to_client was called.
  constexpr std::size_t kReplies = 200;
  const auto reply = [](std::size_t i) {
    Bytes payload(1 + (i * 7919) % 65536);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(i * 13 + j);
    }
    return payload;
  };
  auto node = make_client_node(1, 1);
  node->set_client_handler(
      [&](std::uint64_t conn, std::uint8_t, const Bytes&) {
        for (std::size_t i = 0; i < kReplies; ++i) {
          node->send_to_client(conn, static_cast<std::uint8_t>(i & 0xff),
                               reply(i));
        }
      });
  LoopThread loop(*node);

  const int fd = raw_dial(node->client_port());
  ASSERT_GE(fd, 0);
  send_frame(fd, 1, to_bytes("go"));
  const auto frames = read_frames(fd, kReplies);
  loop.stop();
  ::close(fd);

  ASSERT_EQ(frames.size(), kReplies);
  for (std::size_t i = 0; i < kReplies; ++i) {
    EXPECT_EQ(frames[i].sender, 1U) << i;
    EXPECT_EQ(frames[i].tag, static_cast<std::uint8_t>(i & 0xff)) << i;
    EXPECT_TRUE(frames[i].payload == reply(i)) << "reply " << i;
  }
  EXPECT_EQ(node->stats().dropped, 0U);
}

TEST(TcpClientPort, ReplyToAGoneConnectionIsCountedDropped) {
  auto node = make_client_node(1, 1);
  std::uint64_t conn = 0;
  node->set_client_handler(
      [&](std::uint64_t c, std::uint8_t, const Bytes&) { conn = c; });
  const int fd = raw_dial(node->client_port());
  ASSERT_GE(fd, 0);
  send_frame(fd, 1, to_bytes("hello"));
  ASSERT_TRUE(node->run_until([&]() { return conn != 0; }, 10'000'000));

  // A live connection takes the reply; an id never handed out drops it.
  node->send_to_client(conn, 2, to_bytes("live"));
  EXPECT_EQ(node->stats().dropped, 0U);
  node->send_to_client(conn + 1000, 2, to_bytes("nobody"));
  EXPECT_EQ(node->stats().dropped, 1U);

  // The client hangs up; once the transport notices, a reply counts as
  // dropped instead of reaching anyone. Keep replying until it does.
  ::close(fd);
  std::function<void()> reply_again = [&]() {
    node->send_to_client(conn, 2, to_bytes("late"));
    if (node->stats().dropped < 2) node->set_timer(1'000, reply_again);
  };
  node->set_timer(0, reply_again);
  EXPECT_TRUE(node->run_until([&]() { return node->stats().dropped >= 2; },
                              10'000'000));
  EXPECT_EQ(node->stats().delivered, 1U);
}

TEST(TcpClientPort, NonReadingClientIsCutLooseWhilePeersKeepDelivering) {
  // A client that sends one request and never reads: 8 MiB replies pile
  // up past the 16 MiB unsent-bytes cap and the transport disconnects it.
  // Replica traffic into the same transport keeps flowing throughout.
  std::vector<std::unique_ptr<TcpTransport>> nodes(3);
  nodes[1] = make_client_node(1, 2);
  nodes[2] = make_node(2, 2);
  cross_wire(nodes);
  TcpTransport& server = *nodes[1];
  TcpTransport& peer = *nodes[2];

  // Node 2 sends node 1 a small frame every 5 ms.
  std::function<void()> tick = [&]() {
    peer.send(2, 1, 3, to_bytes("tick"));
    peer.set_timer(5'000, tick);
  };
  peer.set_timer(0, tick);
  LoopThread peer_loop(peer);

  int ticks_after_cut = 0;
  server.register_handler(1, [&](ReplicaId from, std::uint8_t, const Bytes&) {
    EXPECT_EQ(from, 2U);
    if (server.stats().dropped >= 1) ++ticks_after_cut;
  });
  // One 8 MiB reply every 10 ms, at most 12, until the cut.
  int replies = 0;
  std::function<void(std::uint64_t)> big_reply = [&](std::uint64_t conn) {
    server.send_to_client(conn, 4, Bytes(8u << 20, 0x5a));
    if (server.stats().dropped == 0 && ++replies < 12) {
      server.set_timer(10'000, [&big_reply, conn]() { big_reply(conn); });
    }
  };
  server.set_client_handler(
      [&](std::uint64_t conn, std::uint8_t, const Bytes&) { big_reply(conn); });

  const int fd = raw_dial(server.client_port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  send_frame(fd, 1, to_bytes("flood me"));
  const bool done = server.run_until(
      [&]() { return server.stats().dropped >= 1 && ticks_after_cut >= 3; },
      20'000'000);
  peer_loop.stop();

  EXPECT_TRUE(done) << "dropped=" << server.stats().dropped
                    << " ticks_after_cut=" << ticks_after_cut;
  EXPECT_EQ(server.stats().dropped, 1U);
  EXPECT_GE(replies, 2);  // the first two fit under the cap
  EXPECT_TRUE(hung_up(fd));
  ::close(fd);
}

TEST(TcpClientPort, BadVersionByteClosesOnlyThatClient) {
  auto node = make_client_node(1, 1);
  std::vector<ClientRequest> log;
  echo_clients(*node, log);
  LoopThread loop(*node);

  const int bad = raw_dial(node->client_port());
  const int good = raw_dial(node->client_port());
  ASSERT_GE(bad, 0);
  ASSERT_GE(good, 0);
  send_frame(good, 1, to_bytes("before"));
  ASSERT_EQ(read_frames(good, 1).size(), 1U);

  const Bytes payload = to_bytes("corrupt");
  Bytes frame =
      net::encode_frame(77, 1, ByteSpan(payload.data(), payload.size()));
  frame[4] = net::kFrameVersion + 1;  // the byte after the length prefix
  ASSERT_EQ(::send(bad, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_TRUE(hung_up(bad));

  send_frame(good, 1, to_bytes("after"));
  const auto echo = read_frames(good, 1);
  ASSERT_EQ(echo.size(), 1U);
  EXPECT_EQ(echo[0].payload, to_bytes("after"));
  loop.stop();
  ::close(bad);
  ::close(good);

  ASSERT_EQ(log.size(), 2U);
  EXPECT_EQ(log[0].payload, to_bytes("before"));
  EXPECT_EQ(log[1].payload, to_bytes("after"));
  EXPECT_EQ(log[0].conn, log[1].conn);
}

}  // namespace
}  // namespace probft
