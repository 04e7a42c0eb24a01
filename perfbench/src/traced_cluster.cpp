#include "traced_cluster.hpp"

#include <time.h>

#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/tcp_transport.hpp"
#include "sim/node_factory.hpp"
#include "smr/smr_replica.hpp"
#include "store/wal.hpp"

namespace perfbench {
namespace {

using probft::Bytes;
using probft::ByteSpan;
using probft::ReplicaId;
namespace crypto = probft::crypto;
namespace net = probft::net;
namespace smr = probft::smr;
namespace tags = probft::net::tags;

/// Per-thread span cap (~48 B each): far above what a run records.
constexpr std::size_t kMaxSpans = 4'000'000;

/// CryptoSuite decorator: every call into the crypto layer is a span.
class TimingSuite final : public crypto::CryptoSuite {
 public:
  TimingSuite(std::unique_ptr<crypto::CryptoSuite> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] crypto::KeyPair keygen(std::uint64_t seed) const override {
    return inner_->keygen(seed);
  }
  [[nodiscard]] Bytes sign(ByteSpan secret_key,
                           ByteSpan message) const override {
    ScopedSpan span(tracer_, Kind::kSign);
    return inner_->sign(secret_key, message);
  }
  [[nodiscard]] bool verify(ByteSpan public_key, ByteSpan message,
                            ByteSpan signature) const override {
    ScopedSpan span(tracer_, Kind::kVerify);
    return inner_->verify(public_key, message, signature);
  }
  [[nodiscard]] bool verify_batch(
      const std::vector<crypto::SigCheck>& checks) const override {
    ScopedSpan span(tracer_, Kind::kBatch, checks.size());
    return inner_->verify_batch(checks);
  }
  [[nodiscard]] crypto::VrfResult vrf_prove(ByteSpan secret_key,
                                            ByteSpan alpha) const override {
    ScopedSpan span(tracer_, Kind::kVrfProve);
    return inner_->vrf_prove(secret_key, alpha);
  }
  [[nodiscard]] std::optional<Bytes> vrf_verify(
      ByteSpan public_key, ByteSpan alpha, ByteSpan proof) const override {
    ScopedSpan span(tracer_, Kind::kVrfVerify);
    return inner_->vrf_verify(public_key, alpha, proof);
  }

 private:
  std::unique_ptr<crypto::CryptoSuite> inner_;
  Tracer& tracer_;
};

std::unique_ptr<crypto::CryptoSuite> make_suite(const std::string& name) {
  return name == "ed25519" ? crypto::make_ed25519_suite()
                           : crypto::make_sim_suite();
}

/// Peels a kSmr envelope (u64 slot ‖ u8 inner tag ‖ message) to note the
/// first Propose per slot and count view-change traffic per recipient.
void note_envelope(Tracer& tracer, std::uint8_t tag, const Bytes& m,
                   std::uint64_t recipients) {
  if (tag != tags::kSmr) return;
  try {
    probft::Reader reader(ByteSpan(m.data(), m.size()));
    const std::uint64_t slot = reader.u64();
    const std::uint8_t inner = reader.u8();
    if (inner == tags::kPropose) {
      tracer.first_propose.emplace(slot, now_ns());
    } else if (inner == tags::kNewLeader || inner == tags::kWish) {
      tracer.view_change_sends += recipients;
    }
  } catch (const probft::CodecError&) {
    // Not an envelope this build writes; nothing to note.
  }
}

}  // namespace

const char* kind_name(Kind kind) {
  static const char* const kNames[] = {
      "peer_handler", "client_handler", "submit_request", "submit_read",
      "on_execute",   "send",           "timer",          "sign",
      "verify",       "vrf_prove",      "vrf_verify",     "verify_batch"};
  const auto idx = static_cast<std::size_t>(kind);
  return idx < static_cast<std::size_t>(Kind::kCount) ? kNames[idx] : "?";
}

std::int64_t thread_cpu_ns() {
  timespec cpu{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
  return static_cast<std::int64_t>(cpu.tv_sec) * kSec + cpu.tv_nsec;
}

std::int32_t Tracer::open(Kind kind, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  if (stack_.empty()) top_cpu_start_ = thread_cpu_ns();
  std::int32_t idx = -1;
  if (spans.size() < kMaxSpans) {
    idx = static_cast<std::int32_t>(spans.size());
    spans.push_back(Span{now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                         kind, a, b, c});
  } else {
    ++dropped;
  }
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::int32_t idx) {
  if (idx >= 0) spans[static_cast<std::size_t>(idx)].end = now_ns();
  stack_.pop_back();
  if (stack_.empty()) top_cpu_ns += thread_cpu_ns() - top_cpu_start_;
}

void Tracer::label(std::int32_t idx, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c) {
  if (idx < 0) return;
  Span& span = spans[static_cast<std::size_t>(idx)];
  span.a = a;
  span.b = b;
  span.c = c;
}

/// One hosted replica. Members are destroyed bottom-up: the thread is
/// joined before anything it uses goes, and the node before the
/// transport, WAL and suite it holds references to.
struct TracedCluster::Replica {
  ReplicaId id = 0;
  Tracer tracer;
  std::unique_ptr<TimingSuite> suite;
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<probft::store::Wal> wal;
  std::unique_ptr<smr::SmrReplica> node;
  // Reply routing, as in probft_node: (client, seq) → connection, plus the
  // per-client last reply that answers an already-executed retry.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> waiting;
  std::map<std::uint64_t, net::ClientReply> last_reply;
  ReplicaSnapshot snap;
  bool killed = false;
  std::string error;
  std::atomic<bool> ready{false};
  std::atomic<bool> finish{false};
  std::thread thread;
};

namespace {

/// Loop-thread body: builds the node exactly as probft_node's SMR mode
/// does, with the layer boundaries wrapped in spans, then serves.
void serve(TracedCluster::Replica& r, const TracedConfig& cfg,
           const Bytes& secret_key, const crypto::PublicKeyDir& keys) {
  net::TcpTransport& transport = *r.transport;
  try {
    probft::sim::NodeParams params;
    params.id = r.id;
    params.n = cfg.n;
    params.f = 1;
    params.o = 1.7;
    params.l = 1.5;
    params.suite = r.suite.get();
    params.secret_key = secret_key;
    params.public_keys = keys;
    params.sync.base_timeout = 1'000'000;  // as probft_node: 1 s view 1
    params.smr.serve_reads = cfg.reads;
    if (!cfg.wal_root.empty()) {
      r.wal = std::make_unique<probft::store::Wal>(probft::store::WalOptions{
          cfg.wal_root + "/wal-" + std::to_string(r.id), true});
      params.wal = r.wal.get();
    }
    params.on_execute = [&r](const smr::ExecutedCommand& cmd) {
      ScopedSpan span(r.tracer, Kind::kExecute, cmd.client, cmd.seq, cmd.slot);
      net::ClientReply reply;
      reply.client_id = cmd.client;
      reply.seq = cmd.seq;
      reply.slot = cmd.slot;
      reply.result = cmd.payload;
      const auto it = r.waiting.find({cmd.client, cmd.seq});
      if (it != r.waiting.end()) {
        r.transport->send_to_client(it->second, net::kClientReplyTag,
                                    reply.encode());
        r.waiting.erase(it);
      }
      r.last_reply[cmd.client] = std::move(reply);
    };

    probft::core::ProtocolHost host = probft::sim::transport_host(
        transport, r.id,
        [&r](probft::Duration delay, std::function<void()> fn) {
          ++r.tracer.timer_arms;
          r.transport->set_timer(delay, [&r, fn = std::move(fn)] {
            ScopedSpan span(r.tracer, Kind::kTimer);
            ++r.tracer.timer_fires;
            fn();
          });
        });
    auto send = std::move(host.send);
    auto broadcast = std::move(host.broadcast);
    const std::uint64_t others = cfg.n - 1;
    host.send = [&r, send = std::move(send)](ReplicaId to, std::uint8_t tag,
                                             const Bytes& m) {
      ScopedSpan span(r.tracer, Kind::kSend, to, tag);
      note_envelope(r.tracer, tag, m, 1);
      send(to, tag, m);
    };
    host.broadcast = [&r, others, broadcast = std::move(broadcast)](
                         std::uint8_t tag, const Bytes& m) {
      ScopedSpan span(r.tracer, Kind::kSend, 0, tag);
      note_envelope(r.tracer, tag, m, others);
      broadcast(tag, m);
    };
    r.node = probft::sim::make_smr_node(params, std::move(host));

    transport.register_handler(
        r.id, [&r](ReplicaId from, std::uint8_t tag, const Bytes& m) {
          ScopedSpan span(r.tracer, Kind::kPeer, from, tag);
          r.node->on_message(from, tag, m);
        });
    transport.set_client_handler([&r](std::uint64_t conn, std::uint8_t tag,
                                      const Bytes& payload) {
      ScopedSpan span(r.tracer, Kind::kClient);
      const ByteSpan bytes(payload.data(), payload.size());
      try {
        if (tag == net::kClientReadTag) {
          const auto read = net::ReadRequest::decode(bytes);
          r.tracer.label(span.index(), read.client_id, read.read_id, tag);
          ScopedSpan submit(r.tracer, Kind::kRead, read.client_id,
                            read.read_id);
          r.node->submit_read(
              read.key, read.consistency, read.min_index,
              [&r, conn, client_id = read.client_id,
               read_id = read.read_id](const smr::SmrReplica::ReadResult& res) {
                net::ReadReply reply;
                reply.client_id = client_id;
                reply.read_id = read_id;
                reply.status = res.status;
                reply.slot = res.slot;
                reply.index = res.index;
                reply.value = res.value;
                r.transport->send_to_client(conn, net::kClientReadReplyTag,
                                            reply.encode());
              });
          return;
        }
        if (tag != net::kClientRequestTag) return;
        const auto request = net::ClientRequest::decode(bytes);
        r.tracer.label(span.index(), request.client_id, request.seq, tag);
        if (request.seq <= r.node->last_executed_seq(request.client_id)) {
          const auto cached = r.last_reply.find(request.client_id);
          if (cached != r.last_reply.end() &&
              cached->second.seq == request.seq) {
            r.transport->send_to_client(conn, net::kClientReplyTag,
                                        cached->second.encode());
          }
          return;
        }
        bool accepted = false;
        {
          ScopedSpan submit(r.tracer, Kind::kSubmit, request.client_id,
                            request.seq);
          accepted = r.node->submit_request(request.client_id, request.seq,
                                            request.payload);
        }
        if (accepted || r.node->has_pending(request.client_id, request.seq)) {
          r.waiting[{request.client_id, request.seq}] = conn;
        } else {
          net::ClientReply reject;
          reject.client_id = request.client_id;
          reject.seq = request.seq;
          reject.status = net::ReplyStatus::kRejected;
          r.transport->send_to_client(conn, net::kClientReplyTag,
                                      reject.encode());
        }
      } catch (const probft::CodecError&) {
        // Malformed client frame: drop, as probft_node does.
      }
    });
    r.node->start();
  } catch (const std::exception& e) {
    r.error = e.what();
    r.ready.store(true);
    return;
  }
  r.ready.store(true);
  transport.run_until([&r] { return r.finish.load(); },
                      /*max_wall=*/3'600'000'000ULL);
}

}  // namespace

TracedCluster::TracedCluster(TracedConfig cfg) : cfg_(std::move(cfg)) {}

TracedCluster::~TracedCluster() { stop(); }

void TracedCluster::start() {
  started_at_ = now_ns();
  const auto keygen = make_suite(cfg_.suite);
  std::vector<Bytes> public_keys(cfg_.n + 1);
  std::vector<Bytes> secret_keys(cfg_.n + 1);
  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    auto pair = keygen->keygen(probft::mix64(cfg_.seed, id));
    public_keys[id] = std::move(pair.public_key);
    secret_keys[id] = std::move(pair.secret_key);
  }
  const crypto::PublicKeyDir keys(std::move(public_keys));

  for (ReplicaId id = 1; id <= cfg_.n; ++id) {
    auto r = std::make_unique<Replica>();
    r->id = id;
    r->suite = std::make_unique<TimingSuite>(make_suite(cfg_.suite), r->tracer);
    net::TcpTransportConfig tc;
    tc.self = id;
    tc.n = cfg_.n;
    tc.client_port_enabled = true;
    r->transport = std::make_unique<net::TcpTransport>(std::move(tc));
    replicas_.push_back(std::move(r));
  }
  for (auto& r : replicas_) {
    for (const auto& peer : replicas_) {
      if (peer->id == r->id) continue;
      r->transport->set_peer(
          peer->id, net::PeerAddress{"127.0.0.1", peer->transport->listen_port()});
    }
  }
  for (auto& r : replicas_) {
    Replica& replica = *r;
    replica.thread = std::thread([this, &replica, secret = secret_keys[replica.id],
                                  keys] { serve(replica, cfg_, secret, keys); });
  }
  for (auto& r : replicas_) {
    while (!r->ready.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!r->error.empty()) {
      throw std::runtime_error("replica " + std::to_string(r->id) + ": " +
                               r->error);
    }
  }
}

std::vector<Endpoint> TracedCluster::client_endpoints() const {
  std::vector<Endpoint> endpoints;
  for (const auto& r : replicas_) {
    endpoints.push_back(Endpoint{"127.0.0.1", r->transport->client_port()});
  }
  return endpoints;
}

void TracedCluster::halt(Replica& r) {
  if (!r.thread.joinable()) return;
  if (r.error.empty()) {
    r.transport->post([&r] {
      r.snap.thread_cpu_ns = thread_cpu_ns();
      r.snap.frames_flushed = r.transport->frames_flushed();
      r.snap.flush_syscalls = r.transport->flush_syscalls();
      r.snap.slots = r.node->committed_slots();
      r.snap.cmds = r.node->executed_commands();
      r.snap.digest = r.node->log_digest();
      r.snap.reads_served = r.node->reads_served();
      r.snap.lease_reads = r.node->lease_reads();
      r.snap.taken = true;
      r.finish.store(true);
    });
  }
  r.thread.join();
}

void TracedCluster::kill(std::uint32_t id) {
  Replica& r = *replicas_.at(id - 1);
  halt(r);
  r.node.reset();
  r.wal.reset();
  r.transport.reset();
  r.killed = true;
}

void TracedCluster::stop() {
  for (auto& r : replicas_) halt(*r);
}

bool TracedCluster::killed(std::uint32_t id) const {
  return replicas_.at(id - 1)->killed;
}

const Tracer& TracedCluster::tracer(std::uint32_t id) const {
  return replicas_.at(id - 1)->tracer;
}

const ReplicaSnapshot& TracedCluster::snapshot(std::uint32_t id) const {
  return replicas_.at(id - 1)->snap;
}

bool TracedCluster::write_spans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "replica,kind,start_ns,end_ns,parent,a,b,c\n");
  for (const auto& r : replicas_) {
    for (const Span& s : r->tracer.spans) {
      std::fprintf(out, "%u,%s,%lld,%lld,%d,%llu,%llu,%llu\n", r->id,
                   kind_name(s.kind), static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.a),
                   static_cast<unsigned long long>(s.b),
                   static_cast<unsigned long long>(s.c));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
