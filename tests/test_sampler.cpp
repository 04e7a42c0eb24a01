#include "crypto/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bytes.hpp"

namespace probft::crypto {
namespace {

class SamplerTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<CryptoSuite> suite() const {
    if (std::string(GetParam()) == "ed25519") return make_ed25519_suite();
    return make_sim_suite();
  }
};

TEST_P(SamplerTest, SampleHasRequestedShape) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  const auto alpha = sample_alpha(3, "prepare");
  const auto result = vrf_sample(*s, kp.secret_key, alpha, 100, 20);
  EXPECT_EQ(result.sample.size(), 20U);
  std::set<ReplicaId> unique(result.sample.begin(), result.sample.end());
  EXPECT_EQ(unique.size(), 20U);
  for (auto id : result.sample) {
    EXPECT_GE(id, 1U);
    EXPECT_LE(id, 100U);
  }
  EXPECT_TRUE(std::is_sorted(result.sample.begin(), result.sample.end()));
}

TEST_P(SamplerTest, SampleVerifies) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  const auto alpha = sample_alpha(3, "prepare");
  const auto result = vrf_sample(*s, kp.secret_key, alpha, 50, 10);
  EXPECT_TRUE(vrf_sample_verify(*s, kp.public_key, alpha, 50, 10,
                                result.sample, result.proof));
}

TEST_P(SamplerTest, VerifyRejectsAlteredSample) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  const auto alpha = sample_alpha(3, "prepare");
  auto result = vrf_sample(*s, kp.secret_key, alpha, 50, 10);
  // Swap one member for another id not in the sample.
  std::set<ReplicaId> members(result.sample.begin(), result.sample.end());
  for (ReplicaId candidate = 1; candidate <= 50; ++candidate) {
    if (!members.contains(candidate)) {
      result.sample[0] = candidate;
      break;
    }
  }
  std::sort(result.sample.begin(), result.sample.end());
  EXPECT_FALSE(vrf_sample_verify(*s, kp.public_key, alpha, 50, 10,
                                 result.sample, result.proof));
}

TEST_P(SamplerTest, VerifyRejectsWrongPhaseAlpha) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  const auto result =
      vrf_sample(*s, kp.secret_key, sample_alpha(3, "prepare"), 50, 10);
  EXPECT_FALSE(vrf_sample_verify(*s, kp.public_key, sample_alpha(3, "commit"),
                                 50, 10, result.sample, result.proof));
}

TEST_P(SamplerTest, VerifyRejectsForeignProof) {
  const auto s = suite();
  const auto kp1 = s->keygen(1);
  const auto kp2 = s->keygen(2);
  const auto alpha = sample_alpha(1, "commit");
  const auto result = vrf_sample(*s, kp1.secret_key, alpha, 50, 10);
  // A Byzantine replica cannot claim another replica's sample as its own.
  EXPECT_FALSE(vrf_sample_verify(*s, kp2.public_key, alpha, 50, 10,
                                 result.sample, result.proof));
}

TEST_P(SamplerTest, PhasesProduceDifferentSamples) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  const auto prep =
      vrf_sample(*s, kp.secret_key, sample_alpha(9, "prepare"), 200, 30);
  const auto comm =
      vrf_sample(*s, kp.secret_key, sample_alpha(9, "commit"), 200, 30);
  EXPECT_NE(prep.sample, comm.sample);
}

TEST_P(SamplerTest, ViewsProduceDifferentSamples) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  const auto v1 =
      vrf_sample(*s, kp.secret_key, sample_alpha(1, "prepare"), 200, 30);
  const auto v2 =
      vrf_sample(*s, kp.secret_key, sample_alpha(2, "prepare"), 200, 30);
  EXPECT_NE(v1.sample, v2.sample);
}

TEST_P(SamplerTest, MemoProveMatchesVrfSample) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  SampleMemo memo(*s, kp.secret_key, kp.public_key);
  for (const char* phase : {"prepare", "commit", "prepare"}) {
    const auto alpha = sample_alpha(3, phase);
    const auto direct = vrf_sample(*s, kp.secret_key, alpha, 50, 10);
    const auto memoized = memo.prove(alpha, 50, 10);
    EXPECT_EQ(memoized.sample, direct.sample) << phase;
    EXPECT_EQ(memoized.proof, direct.proof) << phase;
  }
}

TEST_P(SamplerTest, MemoVerifyMatchesVrfSampleVerify) {
  const auto s = suite();
  const auto kp1 = s->keygen(1);
  const auto kp2 = s->keygen(2);
  const auto prepare = sample_alpha(4, "prepare");
  const auto commit = sample_alpha(4, "commit");
  const auto r1 = vrf_sample(*s, kp1.secret_key, prepare, 50, 10);
  const auto r2 = vrf_sample(*s, kp2.secret_key, prepare, 50, 10);
  // The verifier's memo holds a third key, so nothing is pre-seeded.
  const auto kp3 = s->keygen(3);
  SampleMemo memo(*s, kp3.secret_key, kp3.public_key);
  struct Case {
    const char* what;
    const Bytes& pk;
    const Bytes& alpha;
    const SampleResult& r;
  };
  const Case cases[] = {
      {"valid", kp1.public_key, prepare, r1},
      {"foreign proof", kp1.public_key, prepare, r2},
      {"wrong-phase alpha", kp1.public_key, commit, r1},
      {"wrong key", kp2.public_key, prepare, r1},
  };
  for (int pass = 0; pass < 2; ++pass) {  // computed, then memoized
    for (const Case& c : cases) {
      EXPECT_EQ(memo.verify(c.pk, c.alpha, 50, 10, c.r.sample, c.r.proof),
                vrf_sample_verify(*s, c.pk, c.alpha, 50, 10, c.r.sample,
                                  c.r.proof))
          << c.what << " pass " << pass;
    }
  }
  EXPECT_TRUE(memo.verify(kp1.public_key, prepare, 50, 10, r1.sample,
                          r1.proof));
  EXPECT_FALSE(memo.verify(kp2.public_key, prepare, 50, 10, r1.sample,
                           r1.proof));
}

TEST_P(SamplerTest, MemoRejectsRealProofWithAlteredSample) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  const auto alpha = sample_alpha(3, "commit");
  const auto real = vrf_sample(*s, kp.secret_key, alpha, 50, 10);
  const auto kp6 = s->keygen(6);
  SampleMemo verifier(*s, kp6.secret_key, kp6.public_key);
  SampleMemo owner(*s, kp.secret_key, kp.public_key);
  ASSERT_EQ(owner.prove(alpha, 50, 10).proof, real.proof);
  // The valid tuple is cached first (computed by the verifier, seeded by
  // proving in the owner); the fabricated sample must still be rejected.
  ASSERT_TRUE(verifier.verify(kp.public_key, alpha, 50, 10, real.sample,
                              real.proof));
  ASSERT_TRUE(
      owner.verify(kp.public_key, alpha, 50, 10, real.sample, real.proof));
  std::vector<ReplicaId> forged = real.sample;
  forged.back() = forged.back() == 50 ? 49 : 50;
  std::sort(forged.begin(), forged.end());
  ASSERT_NE(forged, real.sample);
  EXPECT_FALSE(
      verifier.verify(kp.public_key, alpha, 50, 10, forged, real.proof));
  EXPECT_FALSE(owner.verify(kp.public_key, alpha, 50, 10, forged, real.proof));
  // A sample of a different size is a different claim too.
  const std::vector<ReplicaId> shorter(real.sample.begin(),
                                       real.sample.end() - 1);
  EXPECT_FALSE(
      verifier.verify(kp.public_key, alpha, 50, 9, shorter, real.proof));
}

TEST_P(SamplerTest, MemoStaysExactAcrossCapClears) {
  const auto s = suite();
  const auto kp = s->keygen(5);
  const auto other = s->keygen(8);
  SampleMemo memo(*s, kp.secret_key, kp.public_key, /*cap=*/2);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t view = 1; view <= 3; ++view) {
      const auto alpha = sample_alpha(view, "prepare");
      const auto direct = vrf_sample(*s, kp.secret_key, alpha, 40, 8);
      const auto memoized = memo.prove(alpha, 40, 8);
      EXPECT_EQ(memoized.sample, direct.sample) << "view " << view;
      EXPECT_EQ(memoized.proof, direct.proof) << "view " << view;
      EXPECT_TRUE(
          memo.verify(kp.public_key, alpha, 40, 8, direct.sample,
                      direct.proof));
      EXPECT_FALSE(memo.verify(other.public_key, alpha, 40, 8, direct.sample,
                               direct.proof));
      auto altered = direct.sample;
      altered.front() = altered.front() == 1 ? 2 : 1;
      std::sort(altered.begin(), altered.end());
      if (altered != direct.sample) {
        EXPECT_FALSE(
            memo.verify(kp.public_key, alpha, 40, 8, altered, direct.proof));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SamplerTest,
                         ::testing::Values("ed25519", "sim"),
                         [](const auto& info) { return info.param; });

TEST(SampleAlpha, EncodesViewAndPhase) {
  EXPECT_NE(sample_alpha(1, "prepare"), sample_alpha(2, "prepare"));
  EXPECT_NE(sample_alpha(1, "prepare"), sample_alpha(1, "commit"));
}

TEST(ExpandSample, DeterministicAndUniform) {
  const Bytes randomness(32, 0x42);
  const auto a = expand_sample(randomness, 100, 15);
  const auto b = expand_sample(randomness, 100, 15);
  EXPECT_EQ(a, b);

  // Inclusion frequency across many distinct randomness values ~ k/n.
  constexpr std::uint32_t n = 30, k = 6;
  constexpr int kTrials = 6000;
  std::vector<int> counts(n + 1, 0);
  for (int t = 0; t < kTrials; ++t) {
    Bytes r(32, 0);
    r[0] = static_cast<std::uint8_t>(t);
    r[1] = static_cast<std::uint8_t>(t >> 8);
    r[2] = static_cast<std::uint8_t>(t >> 16);
    for (auto id : expand_sample(r, n, k)) counts[id]++;
  }
  const double expected = static_cast<double>(kTrials) * k / n;
  for (std::uint32_t id = 1; id <= n; ++id) {
    EXPECT_GT(counts[id], expected * 0.85) << "id " << id;
    EXPECT_LT(counts[id], expected * 1.15) << "id " << id;
  }
}

}  // namespace
}  // namespace probft::crypto
