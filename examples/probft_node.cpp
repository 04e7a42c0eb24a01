// One consensus replica per OS process, over real TCP sockets.
//
//   terminal 1: ./probft_node --id 1 --peers 127.0.0.1:9001,...,127.0.0.1:9004
//   terminal 2: ./probft_node --id 2 --peers <same list>
//   ...
//
// The peer list is 1-based and shared verbatim by every process: entry i is
// replica i's listen address, and the cluster size n is the list's length.
// Key material is derived deterministically from --seed (the same scheme
// the simulator uses), so processes need no key exchange; --suite ed25519
// switches from the fast simulation suite to real Ed25519 + ECVRF.
//
// Two modes:
//
//  - Single-shot (default): one consensus instance; the process prints
//      DECIDED id=<id> view=<v> value=<hex>
//    when its replica decides, keeps serving peers for --linger-ms (so
//    slower replicas can finish) and exits 0; exits 1 if --deadline-ms
//    passes without a decision.
//
//  - SMR (--smr): a pipelined, batched replicated log (src/smr, one
//    smr::SmrReplica) serving real clients over the same sockets.
//    --client-port opens the client listener (the wire format is
//    net/client.hpp over net/frame.hpp). Replies are sent after in-order
//    execution, and duplicate (client, seq) retries are answered from the
//    last-reply cache without re-executing. --reads serves kClientRead
//    frames. The process runs until --run-ms elapses — or exits early
//    once --expect-cmds commands executed, plus --linger-ms for
//    stragglers — and prints
//      SMRLOG id=<id> slots=<s> base=<b> cmds=<c> digest=<hex>
//    (digest = the truncation-invariant chained log digest) so a harness
//    can assert identical logs across the cluster.
//
//    --wal-dir DIR makes the log durable: decisions and stable
//    checkpoints are written to an fsync'd write-ahead log in DIR, and a
//    restarted process recovers its executed prefix from it before
//    rejoining, printing
//      RECOVERED id=<id> base=<b> slots=<s>
//    kill -9 + restart must converge to the same digest as the peers —
//    scripts/run_tcp_cluster.sh's restart mode asserts it.
//
// SIGTERM/SIGINT stop the event loop gracefully in both modes: the WAL
// is flushed and the final SMRLOG/--stats lines are still printed.
// --stats prints per-tag TransportStats on shutdown in both modes.
// scripts/run_tcp_cluster.sh drives all modes: agreement smoke (default),
// client mode (`client`), reads (`reads`) and crash-restart (`restart`).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_args.hpp"
#include "net/client.hpp"
#include "net/tcp_transport.hpp"
#include "sim/node_factory.hpp"
#include "sim/scenario.hpp"
#include "store/wal.hpp"

namespace {

using namespace probft;

struct Options {
  ReplicaId id = 0;
  std::vector<net::PeerAddress> peers;  // index 0 = replica 1
  sim::Protocol protocol = sim::Protocol::kProbft;
  std::uint32_t f = 0;
  double o = 1.7;
  double l = 2.0;
  std::uint64_t seed = 1;
  std::string suite = "sim";
  std::uint64_t deadline_ms = 30'000;
  std::uint64_t linger_ms = 2'000;
  bool stats = false;
  // ---- SMR mode ----
  bool smr = false;
  std::uint16_t client_port = 0;  // 0 = no client listener
  std::uint64_t run_ms = 30'000;
  std::uint64_t expect_cmds = 0;  // 0 = run the full --run-ms
  std::string wal_dir;                      // empty = no durability
  std::uint64_t checkpoint_interval = 16;   // slots; 0 disables
  /// Serve the linearizable read fast path (leader leases + quorum
  /// read-index, src/smr/reads.hpp) and answer kClientRead frames on the
  /// client port. Off by default: reads cost lease renewal broadcasts.
  bool reads = false;
};

// SIGTERM/SIGINT → stop the transport loop; the normal shutdown path
// (WAL flush, SMRLOG, --stats) then runs. The handler only touches an
// atomic inside TcpTransport::stop(), which is async-signal-safe.
net::TcpTransport* g_transport = nullptr;
volatile std::sig_atomic_t g_signaled = 0;

extern "C" void handle_stop_signal(int /*sig*/) {
  g_signaled = 1;
  if (g_transport != nullptr) g_transport->stop();
}

void usage() {
  std::fprintf(
      stderr,
      "usage: probft_node --id I --peers host:port,host:port,...\n"
      "                   [--protocol probft|pbft|hotstuff] [--f F]\n"
      "                   [--o O] [--l L] [--seed S] [--suite sim|ed25519]\n"
      "                   [--deadline-ms MS] [--linger-ms MS]\n"
      "                   [--stats BOOL] [--smr BOOL] [--client-port P]\n"
      "                   [--run-ms MS] [--expect-cmds N]\n"
      "                   [--wal-dir DIR] [--checkpoint-interval SLOTS]\n"
      "                   [--reads BOOL]\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--id") {
      opt.id = cli::parse_u32(value);
    } else if (key == "--peers") {
      opt.peers = cli::parse_host_ports(value);
    } else if (key == "--protocol") {
      if (!sim::protocol_from_string(value, opt.protocol)) return false;
    } else if (key == "--f") {
      opt.f = cli::parse_u32(value);
    } else if (key == "--o") {
      opt.o = cli::parse_factor(value);
    } else if (key == "--l") {
      opt.l = cli::parse_factor(value);
    } else if (key == "--seed") {
      opt.seed = cli::parse_u64(value);
    } else if (key == "--suite") {
      if (value != "sim" && value != "ed25519") return false;
      opt.suite = value;
    } else if (key == "--deadline-ms") {
      opt.deadline_ms = cli::parse_u64(value);
    } else if (key == "--linger-ms") {
      opt.linger_ms = cli::parse_u64(value);
    } else if (key == "--stats") {
      opt.stats = cli::parse_bool(value);
    } else if (key == "--smr") {
      opt.smr = cli::parse_bool(value);
    } else if (key == "--client-port") {
      opt.client_port = cli::parse_port(value);
      opt.smr = true;  // a client port only makes sense with the log
    } else if (key == "--run-ms") {
      opt.run_ms = cli::parse_u64(value);
    } else if (key == "--expect-cmds") {
      opt.expect_cmds = cli::parse_u64(value);
    } else if (key == "--wal-dir") {
      opt.wal_dir = value;
      opt.smr = true;  // durability only applies to the log
    } else if (key == "--checkpoint-interval") {
      opt.checkpoint_interval = cli::parse_u64(value);
    } else if (key == "--reads") {
      opt.reads = cli::parse_bool(value);
      opt.smr = true;  // the read path answers against the replicated log
    } else {
      return false;
    }
  }
  return opt.id >= 1 && opt.peers.size() >= 2 &&
         opt.id <= opt.peers.size();
}

void print_stats(const net::TransportStats& stats) {
  std::printf("STATS total sends=%llu delivered=%llu dropped=%llu "
              "duplicates=%llu bytes=%llu\n",
              static_cast<unsigned long long>(stats.sends),
              static_cast<unsigned long long>(stats.delivered),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.duplicates),
              static_cast<unsigned long long>(stats.bytes_sent));
  for (const auto& [tag, sends] : stats.sends_by_tag) {
    std::printf("STATS tag=0x%02x sends=%llu bytes=%llu\n", tag,
                static_cast<unsigned long long>(sends),
                static_cast<unsigned long long>(stats.bytes_for(tag)));
  }
  std::fflush(stdout);
}

/// --smr: one process serves the replicated log as one smr::SmrReplica.
/// Wires WAL durability, client reply routing and the read path; prints
/// the SMRLOG line.
int run_smr_service(const Options& opt, net::TcpTransport& transport,
                    sim::NodeParams params) {
  params.smr.checkpoint_interval = opt.checkpoint_interval;
  params.smr.serve_reads = opt.reads;

  // Durability: the replica recovers from its WAL at construction and
  // appends decisions / stable checkpoints to it while running.
  std::unique_ptr<store::Wal> wal;
  if (!opt.wal_dir.empty()) {
    try {
      wal = std::make_unique<store::Wal>(
          store::WalOptions{opt.wal_dir, /*fsync=*/true});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot open WAL under %s: %s\n",
                   opt.wal_dir.c_str(), e.what());
      return 1;
    }
    params.wal = wal.get();
  }

  // Reply routing: (client, seq) → the connection awaiting the reply,
  // plus a per-client last-reply cache so an already-executed retry is
  // re-answered without re-execution.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> waiting;
  std::map<std::uint64_t, net::ClientReply> last_reply;

  params.on_execute = [&transport, &waiting,
                       &last_reply](const smr::ExecutedCommand& cmd) {
    net::ClientReply reply;
    reply.client_id = cmd.client;
    reply.seq = cmd.seq;
    reply.slot = cmd.slot;
    reply.result = cmd.payload;
    const auto it = waiting.find({reply.client_id, reply.seq});
    if (it != waiting.end()) {
      transport.send_to_client(it->second, net::kClientReplyTag,
                               reply.encode());
      waiting.erase(it);
    }
    last_reply[reply.client_id] = std::move(reply);
  };

  std::unique_ptr<smr::SmrReplica> node;
  try {
    node = sim::make_smr_node(
        params, sim::transport_host(transport, opt.id,
                                    transport.timer_setter()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start SMR service: %s\n", e.what());
    return 1;
  }

  transport.register_handler(
      opt.id, [&node](ReplicaId from, std::uint8_t tag, const Bytes& m) {
        node->on_message(from, tag, m);
      });
  transport.set_client_handler([&transport, &node, &waiting, &last_reply](
                                   std::uint64_t conn, std::uint8_t tag,
                                   const Bytes& payload) {
    if (tag == net::kClientReadTag) {
      // Read path: the replica answers through its own state machine
      // (lease / read-index / parked min_index waits) and calls back on
      // the loop thread; with --reads off every mode answers kRejected,
      // which the reply carries back instead of leaving the client to
      // infer from a timeout.
      try {
        const auto read =
            net::ReadRequest::decode(ByteSpan(payload.data(), payload.size()));
        node->submit_read(
            read.key, read.consistency, read.min_index,
            [&transport, conn, client_id = read.client_id,
             read_id = read.read_id](const smr::SmrReplica::ReadResult& r) {
              net::ReadReply reply;
              reply.client_id = client_id;
              reply.read_id = read_id;
              reply.status = r.status;
              reply.slot = r.slot;
              reply.index = r.index;
              reply.value = r.value;
              transport.send_to_client(conn, net::kClientReadReplyTag,
                                       reply.encode());
            });
      } catch (const CodecError&) {
        // Malformed read: drop.
      }
      return;
    }
    if (tag != net::kClientRequestTag) return;
    try {
      const auto request =
          net::ClientRequest::decode(ByteSpan(payload.data(), payload.size()));
      if (request.seq <= node->last_executed_seq(request.client_id)) {
        // Already executed: answer the retry from the cache (only the
        // client's latest request is cached, PBFT-style).
        const auto cached = last_reply.find(request.client_id);
        if (cached != last_reply.end() && cached->second.seq == request.seq) {
          transport.send_to_client(conn, net::kClientReplyTag,
                                   cached->second.encode());
        }
        return;
      }
      // Live work routes its reply to this connection (a retry of
      // still-pending work redirects the route). Anything else is an
      // outright rejection (oversized payload, intake backpressure): it
      // answers an explicit kRejected so the client backs off instead of
      // waiting out its timeout, and leaves no route behind (the request
      // will never execute, so a waiting entry would leak).
      if (node->submit_request(request.client_id, request.seq,
                               request.payload) ||
          node->has_pending(request.client_id, request.seq)) {
        waiting[{request.client_id, request.seq}] = conn;
        return;
      }
      net::ClientReply reject;
      reject.client_id = request.client_id;
      reject.seq = request.seq;
      reject.status = net::ReplyStatus::kRejected;
      transport.send_to_client(conn, net::kClientReplyTag, reject.encode());
    } catch (const CodecError&) {
      // Malformed client request: drop (the framing layer already
      // poisons truly corrupt streams).
    }
  });

  if (node->recovered_slots() > 0) {
    std::printf("RECOVERED id=%u base=%llu slots=%llu\n", opt.id,
                static_cast<unsigned long long>(node->log_base()),
                static_cast<unsigned long long>(node->recovered_slots()));
  }
  std::fflush(stdout);

  node->start();

  // --expect-cmds counts executed commands, which survive recovery where
  // a client-only counter would not.
  const std::uint64_t expect = opt.expect_cmds;
  const auto caught_up = [&node, expect] {
    return expect > 0 && node->executed_commands() >= expect;
  };
  const std::function<bool()> done =
      expect > 0 ? std::function<bool()>(caught_up) : nullptr;
  const bool reached = transport.run_until(done, opt.run_ms * 1000);
  // Keep serving peers/clients so slower replicas reach the same log.
  // (A stop signal makes both loops return immediately: stop() is sticky.)
  transport.run_until(nullptr, opt.linger_ms * 1000);

  if (wal) wal->sync();  // flush any buffered tail
  std::printf("SMRLOG id=%u slots=%llu base=%llu cmds=%llu digest=%s\n",
              opt.id,
              static_cast<unsigned long long>(node->committed_slots()),
              static_cast<unsigned long long>(node->log_base()),
              static_cast<unsigned long long>(node->executed_commands()),
              node->log_digest().c_str());
  std::fflush(stdout);
  if (opt.stats) print_stats(transport.stats());
  if (g_signaled) return 0;  // clean stop on request, not a failure
  if (expect > 0 && !reached) {
    std::fprintf(stderr, "executed %llu/%llu commands within %llu ms\n",
                 static_cast<unsigned long long>(node->executed_commands()),
                 static_cast<unsigned long long>(expect),
                 static_cast<unsigned long long>(opt.run_ms));
    return 1;
  }
  return 0;
}

int run_single_shot(const Options& opt, net::TcpTransport& transport,
                    sim::NodeParams params) {
  bool decided = false;
  core::ProtocolHost host = sim::transport_host(transport, opt.id,
                                                transport.timer_setter());
  host.on_decide = [&decided, &opt](View view, const Bytes& value) {
    if (decided) return;
    decided = true;
    std::printf("DECIDED id=%u view=%llu value=%s\n", opt.id,
                static_cast<unsigned long long>(view),
                to_hex(value).c_str());
    std::fflush(stdout);
  };

  const auto node = sim::make_honest_node(params, std::move(host));

  transport.register_handler(
      opt.id, [&node](ReplicaId from, std::uint8_t tag, const Bytes& m) {
        node->on_message(from, tag, m);
      });

  node->start();
  transport.run_until([&decided]() { return decided; },
                      opt.deadline_ms * 1000);
  if (!decided) {
    if (g_signaled) {  // asked to stop — not a timeout failure
      if (opt.stats) print_stats(transport.stats());
      return 0;
    }
    std::fprintf(stderr, "no decision within %llu ms\n",
                 static_cast<unsigned long long>(opt.deadline_ms));
    if (opt.stats) print_stats(transport.stats());
    return 1;
  }
  // Keep answering peers so slower replicas can reach their own quorums.
  transport.run_until(nullptr, opt.linger_ms * 1000);
  if (opt.stats) print_stats(transport.stats());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    usage();
    return 2;
  }
  const auto n = static_cast<std::uint32_t>(opt.peers.size());

  // Deterministic cluster-wide key material, the simulator's scheme
  // (sim::derive_keys).
  const auto suite = opt.suite == "ed25519" ? crypto::make_ed25519_suite()
                                            : crypto::make_sim_suite();
  sim::FleetKeys keys = sim::derive_keys(*suite, n, opt.seed);

  net::TcpTransportConfig tc;
  tc.self = opt.id;
  tc.n = n;
  tc.listen_host = opt.peers[opt.id - 1].host;
  tc.listen_port = opt.peers[opt.id - 1].port;
  for (ReplicaId id = 1; id <= n; ++id) tc.peers[id] = opt.peers[id - 1];
  if (opt.client_port != 0) {
    tc.client_port_enabled = true;
    tc.client_listen_host = tc.listen_host;
    tc.client_listen_port = opt.client_port;
  }

  std::unique_ptr<net::TcpTransport> transport;
  try {
    transport = std::make_unique<net::TcpTransport>(std::move(tc));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start transport: %s\n", e.what());
    return 1;
  }
  g_transport = transport.get();
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  sim::NodeParams params;
  params.protocol = opt.protocol;
  params.id = opt.id;
  params.n = n;
  params.f = opt.f;
  params.o = opt.o;
  params.l = opt.l;
  params.my_value = sim::default_node_value(opt.id);
  params.suite = suite.get();
  params.secret_key = std::move(keys.pairs[opt.id].secret_key);
  params.public_keys = std::move(keys.public_keys);
  // Real clusters need the first view to survive process startup and
  // connection establishment (dial retries run at 100 ms), so the view-1
  // timer is generous compared to the simulator's 100 ms default.
  params.sync.base_timeout = 1'000'000;  // 1 s

  return opt.smr ? run_smr_service(opt, *transport, std::move(params))
                 : run_single_shot(opt, *transport, std::move(params));
}
