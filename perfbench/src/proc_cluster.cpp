#include "proc_cluster.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

/// `count` distinct free loopback ports: each stays bound until all are
/// picked, then all are released for the nodes to take.
std::vector<std::uint16_t> free_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (fd >= 0) ::close(fd);
      for (const int open_fd : fds) ::close(open_fd);
      throw std::runtime_error("cannot probe a free loopback port");
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

/// Whether something accepts TCP connections on 127.0.0.1:`port`.
bool listening(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void parse_output(const std::string& text, NodeReport& report) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    unsigned id = 0;
    unsigned tag = 0;
    unsigned long long slots = 0, base = 0, cmds = 0, sends = 0, bytes = 0;
    char digest[129] = {};
    if (std::sscanf(line.c_str(),
                    "SMRLOG id=%u slots=%llu base=%llu cmds=%llu digest=%128s",
                    &id, &slots, &base, &cmds, digest) == 5) {
      report.has_log = true;
      report.slots = slots;
      report.cmds = cmds;
      report.digest = digest;
    } else if (std::sscanf(line.c_str(), "STATS tag=0x%x sends=%llu bytes=%llu",
                           &tag, &sends, &bytes) == 3) {
      report.tag_sends[tag] = sends;
    } else if (std::sscanf(line.c_str(),
                           "STATS total sends=%llu delivered=%*llu "
                           "dropped=%*llu duplicates=%*llu bytes=%llu",
                           &sends, &bytes) == 2) {
      report.sends = sends;
      report.bytes = bytes;
    }
  }
}

}  // namespace

ProcCluster::ProcCluster(NodeConfig cfg) : cfg_(std::move(cfg)) {}

ProcCluster::~ProcCluster() {
  for (Proc& proc : procs_) {
    if (proc.pid > 0 && !proc.reaped) {
      ::kill(proc.pid, SIGKILL);
      reap(proc, std::numeric_limits<std::int64_t>::max());
    }
  }
}

std::string ProcCluster::output_path(std::uint32_t id) const {
  return cfg_.dir + "/node-" + std::to_string(id) + ".out";
}

void ProcCluster::spawn() {
  const std::uint32_t n = cfg_.n;
  const std::vector<std::uint16_t> ports = free_ports(2 * n);
  std::string peers;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i > 0) peers += ",";
    peers += "127.0.0.1:" + std::to_string(ports[i]);
  }
  client_ports_.assign(ports.begin() + n, ports.end());
  procs_.assign(n, Proc{});
  spawned_at_ = now_ns();
  // Followers first, the view-1 leader last, once the followers listen: a
  // leader that dials a peer not yet listening retries only after 100 ms,
  // which would make set-up time a race between process start-ups.
  for (std::uint32_t i = n; i-- > 0;) {
    const std::uint32_t id = i + 1;
    if (id == 1) {
      const std::int64_t deadline = now_ns() + 5 * kSec;
      for (std::uint32_t peer = 1; peer < n; ++peer) {
        while (!listening(client_ports_[peer]) && now_ns() < deadline &&
               !any_exited()) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
    }
    std::vector<std::string> args = {
        cfg_.node_bin, "--id", std::to_string(id), "--peers", peers,
        "--f", "1", "--l", "1.5", "--seed", std::to_string(cfg_.seed),
        "--suite", cfg_.suite, "--smr", "1",
        "--client-port", std::to_string(client_ports_[i]),
        "--run-ms", "600000", "--linger-ms", "0", "--stats", "1"};
    if (cfg_.wal) {
      args.insert(args.end(),
                  {"--wal-dir", cfg_.dir + "/wal-" + std::to_string(id)});
    }
    if (cfg_.reads) args.insert(args.end(), {"--reads", "1"});
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const std::string out = output_path(id);
    const std::string err = cfg_.dir + "/node-" + std::to_string(id) + ".err";
    const pid_t parent = ::getpid();

    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(126);
      const int out_fd =
          ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err_fd =
          ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out_fd < 0 || err_fd < 0) ::_exit(126);
      ::dup2(out_fd, STDOUT_FILENO);
      ::dup2(err_fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    procs_[i].pid = pid;
    procs_[i].report.id = id;
  }
}

std::vector<Endpoint> ProcCluster::client_endpoints() const {
  std::vector<Endpoint> endpoints;
  for (const std::uint16_t port : client_ports_) {
    endpoints.push_back(Endpoint{"127.0.0.1", port});
  }
  return endpoints;
}

bool ProcCluster::any_exited() {
  for (Proc& proc : procs_) {
    if (proc.pid <= 0) continue;  // not spawned yet
    if (!proc.reaped) reap(proc, /*deadline=*/0);
    if (proc.reaped) return true;
  }
  return false;
}

void ProcCluster::kill_node(std::uint32_t id) {
  Proc& proc = procs_.at(id - 1);
  if (proc.reaped) return;
  sample_io(proc);
  ::kill(proc.pid, SIGKILL);
  reap(proc, std::numeric_limits<std::int64_t>::max());
  proc.report.killed = true;
}

std::vector<NodeReport> ProcCluster::stop() {
  for (Proc& proc : procs_) {
    if (proc.reaped) continue;
    sample_io(proc);
    ::kill(proc.pid, SIGTERM);
  }
  const std::int64_t deadline = now_ns() + 10 * kSec;
  std::vector<NodeReport> reports;
  for (Proc& proc : procs_) {
    reap(proc, deadline);
    parse_output(slurp(output_path(proc.report.id)), proc.report);
    reports.push_back(proc.report);
  }
  return reports;
}

/// Waits for `proc` until `deadline` (0: poll once and return), SIGKILLs it
/// once the deadline passes, and records its rusage when it is reaped.
void ProcCluster::reap(Proc& proc, std::int64_t deadline) {
  bool killed = false;
  while (!proc.reaped) {
    rusage usage{};
    int status = 0;
    const pid_t got = ::wait4(proc.pid, &status, WNOHANG, &usage);
    if (got == proc.pid) {
      proc.reaped = true;
      const auto ms = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
      };
      proc.report.cpu_ms = ms(usage.ru_utime) + ms(usage.ru_stime);
      proc.report.ctx_switches =
          static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
      proc.report.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
      return;
    }
    if (got < 0 && errno != EINTR) {
      proc.reaped = true;  // not our child any more
      return;
    }
    if (deadline == 0) return;
    if (!killed && now_ns() >= deadline) {
      ::kill(proc.pid, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void ProcCluster::sample_io(Proc& proc) const {
  std::ifstream in("/proc/" + std::to_string(proc.pid) + "/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "syscw:") proc.report.syscw = value;
    if (key == "write_bytes:") proc.report.write_bytes = value;
  }
}

}  // namespace perfbench
