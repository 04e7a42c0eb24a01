// Concurrency test for the crypto layer's shared state: the static
// base-point tables, built on first use, and the per-thread key caches.
// Four threads start together, so their first base multiplications race
// for the tables, then sign, verify, VRF-prove and VRF-verify with one key
// they all share and one key of their own. Every output must match what a
// single thread computes afterwards. CI runs this under ThreadSanitizer.
#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/suite.hpp"

namespace probft::crypto {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 6;

struct Outputs {
  std::vector<Bytes> values;  // public keys, signatures, VRF proofs/outputs
  bool all_verified = true;
};

/// One thread's work with the shared key (owner 0) and its own (t + 1).
Outputs run(const CryptoSuite& suite, int t) {
  Outputs out;
  for (int round = 0; round < kRounds; ++round) {
    const Bytes msg = to_bytes("round-" + std::to_string(round) + "-thread-" +
                               std::to_string(t));
    std::vector<KeyPair> keys;
    std::vector<Bytes> sigs;
    for (const int owner : {0, t + 1}) {
      const KeyPair kp = suite.keygen(static_cast<std::uint64_t>(owner));
      const Bytes sig = suite.sign(kp.secret_key, msg);
      const VrfResult vrf = suite.vrf_prove(kp.secret_key, msg);
      const auto beta = suite.vrf_verify(kp.public_key, msg, vrf.proof);
      out.all_verified = out.all_verified &&
                         suite.verify(kp.public_key, msg, sig) &&
                         beta.has_value() && *beta == vrf.output;
      out.values.insert(out.values.end(),
                        {kp.public_key, sig, vrf.proof, vrf.output});
      keys.push_back(kp);
      sigs.push_back(sig);
    }
    const std::vector<SigCheck> batch = {{keys[0].public_key, msg, sigs[0]},
                                         {keys[1].public_key, msg, sigs[1]}};
    out.all_verified = out.all_verified && suite.verify_batch(batch) &&
                       !suite.verify(keys[0].public_key, msg, sigs[1]);
  }
  return out;
}

TEST(CryptoThreads, ConcurrentFirstUseMatchesSingleThread) {
  // Nothing in this process has touched the curve yet: the first base
  // multiplications below race for the static tables.
  const auto suite = make_ed25519_suite();
  std::vector<Outputs> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[static_cast<std::size_t>(t)] = run(*suite, t);
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const Outputs& got = results[static_cast<std::size_t>(t)];
    EXPECT_TRUE(got.all_verified) << "thread " << t;
    const Outputs want = run(*suite, t);
    EXPECT_EQ(got.values, want.values) << "thread " << t;
    // The shared key's public key is the same on every thread.
    EXPECT_EQ(got.values[0], results[0].values[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace probft::crypto
