// Replicated log using the SMR module (src/smr): one long-lived
// simulated fleet (sim::SmrFleet) decides a log of client commands — a
// window of slots runs concurrently, commands ride in batches, and slots
// only open when there is demand (no no-op filler).
//
//   $ ./examples/smr_log [n] [commands]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/smr_fleet.hpp"

int main(int argc, char** argv) {
  using namespace probft;

  const std::uint32_t n =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 8;
  const std::uint64_t commands =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 6;

  sim::SmrFleetConfig cfg;
  cfg.n = n;
  cfg.seed = 2024;
  cfg.latency.min_delay = 1'000;
  cfg.latency.max_delay_post = 6'000;
  cfg.smr.window = 4;
  cfg.smr.batch_max_commands = 2;
  cfg.on_execute = [](sim::SmrFleet&, ReplicaId id,
                      const smr::ExecutedCommand& cmd) {
    if (id == 1) {  // narrate once
      std::printf("  command %2llu executed: %s\n",
                  static_cast<unsigned long long>(cmd.index),
                  std::string(cmd.payload.begin(), cmd.payload.end()).c_str());
    }
  };
  sim::SmrFleet fleet(std::move(cfg));

  // All commands are submitted at replica 1 (the round-robin leader of
  // every slot's first view), like a client talking to the current leader.
  std::printf("submitting %llu commands to an %u-replica ProBFT-SMR fleet\n",
              static_cast<unsigned long long>(commands), n);
  for (std::uint64_t i = 1; i <= commands; ++i) {
    (void)fleet.node(1).submit_request(1, i,
                                       to_bytes("op-" + std::to_string(i - 1)));
  }
  fleet.start();
  (void)fleet.run_until_executed(commands, 120'000'000);

  std::printf("\nlogs after %.1f ms of simulated time:\n",
              static_cast<double>(fleet.sim().now()) / 1000.0);
  for (ReplicaId id = 1; id <= n; ++id) {
    std::printf("  replica %2u: %llu commands in %llu slots\n", id,
                static_cast<unsigned long long>(
                    fleet.node(id).executed_commands()),
                static_cast<unsigned long long>(
                    fleet.node(id).committed_slots()));
  }
  const bool identical = fleet.logs_identical();
  std::printf("\nall logs identical: %s\n", identical ? "yes" : "NO (BUG)");
  std::printf("total wire messages for %llu slots: %llu\n",
              static_cast<unsigned long long>(fleet.node(1).committed_slots()),
              static_cast<unsigned long long>(fleet.network().stats().sends));
  return identical ? 0 : 1;
}
