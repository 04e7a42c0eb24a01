// Simulator determinism PIN: the SHA-256 of canonical decision transcripts
// for fixed (spec, seed) pairs, captured from the build immediately before
// the multi-core-replica PR landed. The multi-core work (shared verdict
// cache, verification worker pool, batched socket writes) must be
// invisible to the single-threaded simulator — not merely "deterministic",
// but bit-identical to what the pre-PR tree produced. A pin failure means
// protocol-visible behavior changed; if that is ever intentional, the new
// digests must be re-captured and the change called out in the PR.
//
// The pinned shapes mirror the nightly n = 500 sweep (o = 1.7, l = 2.0,
// f = n/10) plus the SMR fleet workload, covering the happy path, a forced
// view change, and the windowed SMR engine. The reads pin covers the lease
// and read-index traffic, which the SMR fleet pin (serve_reads off) never
// sends. The catch-up pin covers signed hints, checkpoint votes, certified
// state transfer and WAL-snapshot recovery, which neither of those reaches.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "sim/scenario.hpp"

namespace probft::sim {
namespace {

std::string transcript_sha256(const ScenarioSpec& spec, std::uint64_t seed) {
  const ScenarioOutcome out = run_scenario(spec, seed);
  EXPECT_TRUE(out.terminated) << scenario_name(spec) << " seed " << seed;
  crypto::Sha256 h;
  h.update(ByteSpan(
      reinterpret_cast<const std::uint8_t*>(out.transcript.data()),
      out.transcript.size()));
  const auto digest = h.finalize();
  return to_hex(Bytes(digest.begin(), digest.end()));
}

ScenarioSpec sweep_spec() {
  ScenarioSpec spec;
  spec.protocol = Protocol::kProbft;
  spec.n = 500;
  spec.f = 50;
  spec.o = 1.7;
  spec.l = 2.0;
  spec.fault = Fault::kNone;
  spec.latency = LatencyModel::kSynchronous;
  return spec;
}

TEST(SweepPin, N500HappyPathTranscriptsUnchanged) {
  const ScenarioSpec spec = sweep_spec();
  EXPECT_EQ(
      transcript_sha256(spec, 1),
      "823a2514f79e00c76699d4b29360e75076a7f8069c1c258c59fcfc80b92d9b60");
  EXPECT_EQ(
      transcript_sha256(spec, 2),
      "1d4e564ae90f3242703563ab7d4e3a9373ec4c931d6140864ca24b552dfb8513");
}

TEST(SweepPin, N500ViewChangeTranscriptUnchanged) {
  ScenarioSpec spec = sweep_spec();
  spec.fault = Fault::kSilentLeader;  // view-1 leader crashes: real VC path
  EXPECT_EQ(
      transcript_sha256(spec, 1),
      "84bc39c7d269931d9c9d6527623e6a83cdbc45ce43cc521c313907ea47ebaf9f");
}

std::string traffic_text(const ScenarioOutcome& out) {
  return out.transcript + "messages=" + std::to_string(out.messages) +
         " bytes=" + std::to_string(out.bytes) +
         " events=" + std::to_string(out.events);
}

std::string sha256_hex(const std::string& text) {
  crypto::Sha256 h;
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(text.data()),
                    text.size()));
  const auto digest = h.finalize();
  return to_hex(Bytes(digest.begin(), digest.end()));
}

/// Digest of a reads-workload run: the transcript plus the traffic and
/// read counters, so a change to lease or read-index traffic shows even
/// when the decisions do not move.
std::string reads_sha256(const ScenarioSpec& spec, std::uint64_t seed) {
  const ScenarioOutcome out = run_scenario(spec, seed);
  EXPECT_TRUE(out.terminated) << scenario_name(spec) << " seed " << seed;
  return sha256_hex(traffic_text(out) +
                    " reads_executed=" + std::to_string(out.reads_executed) +
                    " reads_rejected=" + std::to_string(out.reads_rejected));
}

/// Digest of an SMR run's transcript plus its traffic counters, so a
/// change to catch-up traffic shows even when the decisions do not move.
std::string traffic_sha256(const ScenarioSpec& spec, std::uint64_t seed) {
  const ScenarioOutcome out = run_scenario(spec, seed);
  EXPECT_TRUE(out.terminated) << scenario_name(spec) << " seed " << seed;
  return sha256_hex(traffic_text(out));
}

TEST(SweepPin, SmrFleetTranscriptUnchanged) {
  ScenarioSpec spec;
  spec.protocol = Protocol::kProbft;
  spec.n = 32;
  spec.f = 3;
  spec.fault = Fault::kNone;
  spec.workload = Workload::kSmr;
  EXPECT_EQ(
      transcript_sha256(spec, 1),
      "69f2fe25f46c75cbc6ed649e632473d8d57423ea023c38b9e582a3dc36273bcf");
}

// The three shapes of SmrReadsScenario.NoStaleReadsUnderSupportedFaults.
// All three re-captured when every signed SMR message came to name its
// group and slot (the signatures, so the frames, changed) and submissions
// at a non-leader came to be relayed to every peer, whose group timers
// now run while a request waits (the traffic changed).
TEST(SweepPin, SmrReadsTranscriptUnchanged) {
  const std::pair<Fault, const char*> pins[] = {
      {Fault::kNone,
       "8d04e23cd0c207a595f9ce6992ef359d767d30a87fb611a3c1bd627004dd80e3"},
      {Fault::kPartitionUntilGst,
       "d6607a0b05f2a9a69072174a7a32a109974928f9f2ab9a67dd4740dbd762e01c"},
      {Fault::kKillRestart,
       "a2a22b35b99a2d069f61117e503d6270e5e5eeb8f4ad2accdee8b92f2d6a7f43"},
  };
  for (const auto& [fault, digest] : pins) {
    ScenarioSpec spec;
    spec.n = 6;
    spec.f = 1;
    spec.l = 1.5;
    spec.workload = Workload::kSmrReads;
    spec.fault = fault;
    spec.latency = fault == Fault::kPartitionUntilGst
                       ? LatencyModel::kPartialSynchrony
                       : LatencyModel::kSynchronous;
    spec.smr_commands = 6;
    EXPECT_EQ(reads_sha256(spec, 1), digest) << to_string(fault);
  }
}

// Churn with a short checkpoint interval drives signed hints, checkpoint
// stabilization and certified state transfer; kill-restart (whose harness
// checkpoints every 2 slots) drives WAL-snapshot recovery.
TEST(SweepPin, SmrCatchUpTranscriptUnchanged) {
  struct Shape {
    Fault fault;
    std::uint64_t commands;
    std::uint64_t checkpoint_interval;
    const char* digest;
  };
  // Both re-captured with the group and slot in every signing string and
  // the relayed, timed submissions (see SmrReadsTranscriptUnchanged).
  const Shape pins[] = {
      {Fault::kChurnRecovery, 300, 4,
       "af8bc5e65947e3b3c277a37391c1e6dcd810e9b84a92d0222e0209495b2e9639"},
      {Fault::kKillRestart, 100, 16,
       "95ab0ce9ea1869ac0837f918f5a309cd5940b6e856e760008039678145ab87e5"},
  };
  for (const Shape& pin : pins) {
    ScenarioSpec spec;
    spec.n = 7;
    spec.f = 2;
    spec.l = 1.5;
    spec.workload = Workload::kSmr;
    spec.fault = pin.fault;
    spec.smr.batch_max_commands = 4;
    spec.smr.checkpoint_interval = pin.checkpoint_interval;
    spec.smr_commands = pin.commands;
    EXPECT_EQ(traffic_sha256(spec, 1), pin.digest) << to_string(pin.fault);
  }
}

}  // namespace
}  // namespace probft::sim
