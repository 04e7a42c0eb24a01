// Byzantine-certified checkpoints, signed catch-up vouchers and certified
// state transfer (smr/checkpoint.hpp + the SmrReplica catch-up path).
//
// The headline regression lives here: a single Byzantine peer used to be
// able to forge f+1 "distinct senders" vouching for an undecided value
// (sender ids were channel-trusted), injecting arbitrary values into an
// honest replica's log. Hints are now signed per claimed sender, so the
// flood must bounce off.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "crypto/sha256.hpp"
#include "sim/scenario.hpp"
#include "smr/checkpoint.hpp"
#include "smr/smr_replica.hpp"
#include "smr_test_fleet.hpp"

namespace probft::smr {
namespace {

ByteSpan span(const Bytes& bytes) {
  return ByteSpan(bytes.data(), bytes.size());
}

// ---- primitive unit tests ----

TEST(Checkpoint, ChainDigestIsOrderSensitiveAndDeterministic) {
  const Bytes a = to_bytes("batch-a");
  const Bytes b = to_bytes("batch-b");
  const Bytes d0 = zero_digest();
  ASSERT_EQ(d0.size(), 32u);
  const Bytes d_ab = chain_digest(chain_digest(d0, a), b);
  const Bytes d_ba = chain_digest(chain_digest(d0, b), a);
  EXPECT_NE(d_ab, d_ba);
  EXPECT_EQ(d_ab, chain_digest(chain_digest(d0, a), b));
  EXPECT_NE(chain_digest(d0, a), d0);
}

TEST(Checkpoint, StateRoundTripsAndDigestCoversEverything) {
  CheckpointState state;
  state.slot = 16;
  state.exec_count = 40;
  state.log_digest = chain_digest(zero_digest(), to_bytes("x"));
  state.last_exec = {{1, 7}, {5, 2}, {9, 11}};
  Writer w;
  state.encode(w);
  const Bytes encoded = std::move(w).take();
  Reader r(span(encoded));
  const CheckpointState back = CheckpointState::decode(r);
  EXPECT_EQ(back.slot, state.slot);
  EXPECT_EQ(back.exec_count, state.exec_count);
  EXPECT_EQ(back.log_digest, state.log_digest);
  EXPECT_EQ(back.last_exec, state.last_exec);
  EXPECT_EQ(back.digest(), state.digest());

  CheckpointState tweaked = state;
  tweaked.last_exec[1].second = 3;
  EXPECT_NE(tweaked.digest(), state.digest());
}

TEST(Checkpoint, StateDecodeRejectsUnsortedDedupTable) {
  CheckpointState state;
  state.slot = 4;
  state.log_digest = zero_digest();
  state.last_exec = {{5, 1}, {2, 1}};  // descending client ids: invalid
  Writer w;
  state.encode(w);
  const Bytes encoded = std::move(w).take();
  Reader r(span(encoded));
  EXPECT_THROW(CheckpointState::decode(r), CodecError);
}

TEST(Checkpoint, VoteRoundTripsAndRejectsTruncatedBuffers) {
  CheckpointVote vote;
  vote.slot = 12;
  vote.state_digest = chain_digest(zero_digest(), to_bytes("prefix"));
  vote.signer = 3;
  vote.signature = to_bytes("sig-bytes");
  Writer w;
  vote.encode(w);
  const Bytes encoded = std::move(w).take();

  Reader r(span(encoded));
  const CheckpointVote back = CheckpointVote::decode(r);
  EXPECT_EQ(back.slot, vote.slot);
  EXPECT_EQ(back.state_digest, vote.state_digest);
  EXPECT_EQ(back.signer, vote.signer);
  EXPECT_EQ(back.signature, vote.signature);

  // A hostile peer truncating the vote at ANY byte boundary must get a
  // CodecError, never a partially-initialized vote.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    Reader hostile(ByteSpan(encoded.data(), cut));
    EXPECT_THROW(CheckpointVote::decode(hostile), CodecError) << cut;
  }
}

class CertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = crypto::make_sim_suite();
    sim::FleetKeys keys = sim::derive_keys(*suite_, n_, 7);
    keys_ = std::move(keys.pairs);
    dir_ = std::move(keys.public_keys);
    state_.slot = 8;
    state_.exec_count = 8;
    state_.log_digest = chain_digest(zero_digest(), to_bytes("b"));
    digest_ = state_.digest();
  }

  [[nodiscard]] CheckpointCert make_cert(
      const std::vector<ReplicaId>& signers) const {
    CheckpointCert cert;
    cert.slot = state_.slot;
    cert.state_digest = digest_;
    const Bytes msg = checkpoint_signing_bytes(cert.slot, digest_);
    for (ReplicaId id : signers) {
      cert.signatures.emplace_back(
          id, suite_->sign(span(keys_[id].secret_key), span(msg)));
    }
    return cert;
  }

  std::uint32_t n_ = 4, f_ = 1;  // 2f+1 = 3
  std::unique_ptr<crypto::CryptoSuite> suite_;
  std::vector<crypto::KeyPair> keys_;
  crypto::PublicKeyDir dir_;
  CheckpointState state_;
  Bytes digest_;
};

TEST_F(CertTest, QuorumOfDistinctSignersVerifies) {
  EXPECT_TRUE(
      verify_checkpoint_cert(make_cert({1, 2, 3}), n_, f_, *suite_, dir_));
  EXPECT_TRUE(
      verify_checkpoint_cert(make_cert({2, 3, 4}), n_, f_, *suite_, dir_));
}

TEST_F(CertTest, TooFewSignersRejected) {
  EXPECT_FALSE(
      verify_checkpoint_cert(make_cert({1, 2}), n_, f_, *suite_, dir_));
}

TEST_F(CertTest, DuplicateSignersDoNotCount) {
  // One keypair signing thrice is still one voucher — the forged-voucher
  // attack shape, applied to certs.
  auto cert = make_cert({2, 2, 2});
  EXPECT_FALSE(verify_checkpoint_cert(cert, n_, f_, *suite_, dir_));
}

TEST_F(CertTest, SignatureFromWrongKeyRejected) {
  auto cert = make_cert({1, 2, 3});
  // Replica 3's slot in the cert, signed by 4's key: claimed and actual
  // signer disagree.
  const Bytes msg = checkpoint_signing_bytes(cert.slot, digest_);
  cert.signatures[2].second =
      suite_->sign(span(keys_[4].secret_key), span(msg));
  EXPECT_FALSE(verify_checkpoint_cert(cert, n_, f_, *suite_, dir_));
}

TEST_F(CertTest, OutOfRangeSignerRejected) {
  auto cert = make_cert({1, 2, 3});
  cert.signatures[0].first = 9;  // no such replica
  EXPECT_FALSE(verify_checkpoint_cert(cert, n_, f_, *suite_, dir_));
}

// ---- fleet tests ----

/// A test fleet at l = 1.5 (q = 3 at n = 4: quorums survive one silent
/// replica); tests drive each node's replica directly.
struct Fleet : testutil::SmrTestFleet {
  explicit Fleet(std::uint32_t n, std::uint32_t f, SmrOptions options = {},
                 std::uint64_t seed = 1)
      : testutil::SmrTestFleet(make_config(n, f, options, seed)) {}

 private:
  static sim::SmrFleetConfig make_config(std::uint32_t n, std::uint32_t f,
                                         SmrOptions options,
                                         std::uint64_t seed) {
    sim::SmrFleetConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.l = 1.5;
    cfg.seed = seed;
    cfg.smr = options;
    cfg.latency.min_delay = 500;
    cfg.latency.max_delay_post = 4'000;
    return cfg;
  }
};

Bytes one_request_batch(const std::string& payload, std::uint64_t client,
                        std::uint64_t seq) {
  return encode_batch({Request{client, seq, to_bytes(payload)}});
}

/// A hint frame as send_hint produces it, signed with `key`.
Bytes forge_hint(const crypto::CryptoSuite& suite, const Bytes& secret_key,
                 std::uint64_t slot, const Bytes& value) {
  const Bytes digest = crypto::sha256(span(value));
  const Bytes msg = hint_signing_bytes(slot, digest);
  Bytes sig = suite.sign(span(secret_key), span(msg));
  Writer w;
  w.u64(slot);
  w.bytes(span(value));
  w.bytes(span(sig));
  return std::move(w).take();
}

TEST(CheckpointFleet, ForgedVoucherFloodCannotInjectUndecidedValue) {
  // n = 4, f = 1: adoption needs f+1 = 2 distinct VERIFIED vouchers.
  Fleet fleet(4, 1);
  fleet.start();
  const Bytes evil = one_request_batch("evil-undecided", 666, 1);

  // Replica 4 (one Byzantine keypair) floods replica 1 with vouchers for
  // an undecided slot-0 value, claiming every sender id on the channel —
  // exactly what a sender-spoofing TCP peer could do before the transport
  // bound connections. All carry signatures from 4's key.
  const Bytes hint = forge_hint(fleet.suite(),
                                fleet.keys().pairs[4].secret_key, 0, evil);
  for (ReplicaId claimed = 2; claimed <= 4; ++claimed) {
    for (int repeat = 0; repeat < 8; ++repeat) {
      fleet.replica(1).on_message(claimed, kSmrHintTag, hint);
    }
  }
  // No adoption: the signature only verifies under key 4, so the forged
  // claims from 2 and 3 are discarded and the voucher count stays 1.
  EXPECT_EQ(fleet.replica(1).committed_slots(), 0u);
  EXPECT_EQ(fleet.replica(1).executed_commands(), 0u);
  EXPECT_FALSE(fleet.committed(1, "evil-undecided"));

  // The cluster must still be able to decide slot 0 normally afterwards.
  fleet.submit(1, "legit");
  ASSERT_TRUE(fleet.run_until_executed(1));
  EXPECT_FALSE(fleet.committed(1, "evil-undecided"));
  EXPECT_TRUE(fleet.committed(1, "legit"));
}

TEST(CheckpointFleet, ProperlySignedVouchersFromDistinctPeersAdopt) {
  Fleet fleet(4, 1);
  fleet.start();
  const Bytes value = one_request_batch("decided-elsewhere", 7, 1);
  // Two hints signed by the replicas they claim to come from: at least
  // one of f+1 = 2 distinct signers is correct, so adoption is sound.
  fleet.replica(1).on_message(
      2, kSmrHintTag,
      forge_hint(fleet.suite(), fleet.keys().pairs[2].secret_key, 0,
                 value));
  EXPECT_EQ(fleet.replica(1).committed_slots(), 0u);  // one is not enough
  fleet.replica(1).on_message(
      3, kSmrHintTag,
      forge_hint(fleet.suite(), fleet.keys().pairs[3].secret_key, 0,
                 value));
  EXPECT_EQ(fleet.replica(1).committed_slots(), 1u);
  EXPECT_TRUE(fleet.committed(1, "decided-elsewhere"));
  EXPECT_EQ(fleet.replica(1).last_executed_seq(7), 1u);
}

TEST(CheckpointFleet, MismatchedChannelSenderVoucherIsDiscarded) {
  // A hint signed by 4 but delivered as from = 2 must verify under 2's
  // key (and fail) — the signature cannot be "borrowed".
  Fleet fleet(4, 1);
  fleet.start();
  const Bytes value = one_request_batch("x", 1, 1);
  const Bytes signed_by_4 = forge_hint(
      fleet.suite(), fleet.keys().pairs[4].secret_key, 0, value);
  fleet.replica(1).on_message(2, kSmrHintTag, signed_by_4);
  fleet.replica(1).on_message(3, kSmrHintTag, signed_by_4);
  fleet.replica(1).on_message(4, kSmrHintTag, signed_by_4);  // 1 valid
  EXPECT_EQ(fleet.replica(1).committed_slots(), 0u);
}

TEST(CheckpointFleet, CheckpointsStabilizeAndTruncateTheLog) {
  SmrOptions options;
  options.batch_max_commands = 1;
  options.checkpoint_interval = 2;
  Fleet fleet(4, 1, options);
  for (int i = 0; i < 8; ++i) {
    fleet.submit(1, "op-" + std::to_string(i));
  }
  fleet.start();
  ASSERT_TRUE(fleet.run_until_executed(8));
  // Let trailing checkpoint votes drain.
  for (int i = 0; i < 20'000 && fleet.sim().step(); ++i) {
  }
  const std::string reference = fleet.replica(1).log_digest();
  for (ReplicaId id = 1; id <= 4; ++id) {
    auto& rep = fleet.replica(id);
    EXPECT_GE(rep.stable_checkpoint(), 2u) << "replica " << id;
    EXPECT_EQ(rep.stable_checkpoint() % 2, 0u);
    EXPECT_EQ(rep.log_base(), rep.stable_checkpoint());
    // The retained log holds only [base, exec): truncation really frees.
    EXPECT_EQ(rep.slot_log().size(), rep.committed_slots() - rep.log_base());
    EXPECT_EQ(rep.log_digest(), reference) << "replica " << id;
  }
}

TEST(CheckpointFleet, CertifiedStateTransferJumpsAStraggler) {
  // Hand a fresh replica a certified checkpoint for slot 8: with a valid
  // 2f+1 cert it must install the state; with a too-small or mismatched
  // cert it must not.
  Fleet fleet(4, 1);
  fleet.start();

  CheckpointState state;
  state.slot = 8;
  state.exec_count = 11;
  state.log_digest = chain_digest(zero_digest(), to_bytes("fake-history"));
  state.last_exec = {{3, 4}};
  const Bytes digest = state.digest();
  const Bytes msg = checkpoint_signing_bytes(state.slot, digest);
  const auto cert_of = [&](std::vector<ReplicaId> signers) {
    CheckpointCert cert;
    cert.slot = state.slot;
    cert.state_digest = digest;
    for (ReplicaId id : signers) {
      cert.signatures.emplace_back(
          id, fleet.suite().sign(span(fleet.keys().pairs[id].secret_key),
                                 span(msg)));
    }
    return cert;
  };
  const auto encode_state = [&](const CheckpointCert& cert) {
    Writer w;
    state.encode(w);
    cert.encode(w);
    return std::move(w).take();
  };

  // f+1 signatures only: rejected, nothing installs.
  fleet.replica(1).on_message(4, kSmrStateTag,
                                encode_state(cert_of({2, 4})));
  EXPECT_EQ(fleet.replica(1).committed_slots(), 0u);
  EXPECT_EQ(fleet.replica(1).stable_checkpoint(), 0u);

  // 2f+1 distinct signers: installed, even when relayed by a single
  // (possibly Byzantine) peer — trust rides the cert, not the channel.
  fleet.replica(1).on_message(4, kSmrStateTag,
                                encode_state(cert_of({1, 2, 3})));
  EXPECT_EQ(fleet.replica(1).committed_slots(), 8u);
  EXPECT_EQ(fleet.replica(1).executed_commands(), 11u);
  EXPECT_EQ(fleet.replica(1).log_base(), 8u);
  EXPECT_EQ(fleet.replica(1).stable_checkpoint(), 8u);
  EXPECT_EQ(fleet.replica(1).last_executed_seq(3), 4u);
  EXPECT_EQ(fleet.replica(1).log_digest(), to_hex(state.log_digest));
}

// ---- scenario-level crash-restart (simulated kill -9 + WAL rejoin) ----

TEST(CheckpointScenario, KillRestartRecoversAndConverges) {
  sim::ScenarioSpec spec = sim::conformance_base_spec();
  spec.n = 4;
  spec.f = 1;
  spec.l = 1.5;
  spec.workload = sim::Workload::kSmr;
  spec.fault = sim::Fault::kKillRestart;
  spec.smr.batch_max_commands = 1;
  spec.smr_commands = 12;
  spec.seeds = {1, 2};
  ASSERT_TRUE(sim::fault_applicable(spec));
  const sim::ScenarioResult result = sim::run_scenario(spec);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.agreement) << "seed " << outcome.seed;
    EXPECT_TRUE(outcome.terminated) << "seed " << outcome.seed;
  }
}

}  // namespace
}  // namespace probft::smr
