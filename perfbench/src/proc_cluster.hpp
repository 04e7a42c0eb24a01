// A probft_node cluster as real OS processes on 127.0.0.1.
//
// Ports are probed free before each spawn; a node that still loses a bind
// race exits at once, which any_exited() reports so the caller can spawn
// again on fresh ports. Every node gets --stats 1 and writes its stdout
// and stderr under the cluster's directory (with --wal-dir there too).
// stop() samples /proc/<pid>/io, SIGTERMs every node, reaps each with
// wait4 (rusage: CPU, context switches, max RSS) and parses the SMRLOG and
// per-tag STATS lines the nodes print on the way out. The destructor
// SIGKILLs and reaps whatever is still running, and each node also gets
// SIGKILL should this process die first.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "loadgen.hpp"

namespace perfbench {

struct NodeConfig {
  std::string node_bin;
  std::string dir;  // per-cluster directory: node output, WALs
  std::uint32_t n = 4;
  std::uint64_t seed = 1;
  std::string suite = "sim";
  bool wal = false;
  bool reads = false;
};

/// What one node process left behind.
struct NodeReport {
  std::uint32_t id = 0;
  bool killed = false;
  // wait4 rusage
  double cpu_ms = 0.0;
  std::uint64_t ctx_switches = 0;
  double max_rss_mb = 0.0;
  // /proc/<pid>/io just before the stop signal
  std::uint64_t syscw = 0;
  std::uint64_t write_bytes = 0;
  // SMRLOG line
  bool has_log = false;
  std::uint64_t slots = 0;
  std::uint64_t cmds = 0;
  std::string digest;
  // STATS lines
  std::uint64_t sends = 0;
  std::uint64_t bytes = 0;
  std::map<unsigned, std::uint64_t> tag_sends;
};

class ProcCluster {
 public:
  explicit ProcCluster(NodeConfig cfg);
  ~ProcCluster();
  ProcCluster(const ProcCluster&) = delete;
  ProcCluster& operator=(const ProcCluster&) = delete;

  /// Picks free loopback ports and spawns the n nodes.
  void spawn();
  [[nodiscard]] std::int64_t spawned_at() const { return spawned_at_; }
  [[nodiscard]] std::vector<Endpoint> client_endpoints() const;
  /// True once any node has exited (it lost a port race, or crashed).
  bool any_exited();
  /// SIGKILLs node `id` (1-based) and reaps it.
  void kill_node(std::uint32_t id);
  /// Stops every live node gracefully, reaps all, returns their reports.
  std::vector<NodeReport> stop();

 private:
  struct Proc {
    pid_t pid = -1;
    bool reaped = false;
    NodeReport report;
  };
  void reap(Proc& proc, std::int64_t deadline);
  void sample_io(Proc& proc) const;
  [[nodiscard]] std::string output_path(std::uint32_t id) const;

  NodeConfig cfg_;
  std::vector<Proc> procs_;
  std::vector<std::uint16_t> client_ports_;
  std::int64_t spawned_at_ = 0;
};

}  // namespace perfbench
