#include "crypto/ed25519.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/curve25519.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace probft::crypto::ed25519 {
namespace {

// RFC 8032 section 7.1, TEST 1.
const char* kSeed1 =
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60";
const char* kPub1 =
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a";

// RFC 8032 section 7.1, TEST 2.
const char* kSeed2 =
    "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb";
const char* kPub2 =
    "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c";

TEST(Ed25519, Rfc8032Test1PublicKey) {
  EXPECT_EQ(to_hex(derive_public(from_hex(kSeed1))), kPub1);
}

TEST(Ed25519, Rfc8032Test2PublicKey) {
  EXPECT_EQ(to_hex(derive_public(from_hex(kSeed2))), kPub2);
}

TEST(Ed25519, Rfc8032Test1Signature) {
  const auto sig = sign(from_hex(kSeed1), Bytes{});
  EXPECT_EQ(to_hex(sig),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
}

TEST(Ed25519, Rfc8032Test2Signature) {
  const Bytes msg = {0x72};
  const auto sig = sign(from_hex(kSeed2), msg);
  EXPECT_EQ(to_hex(sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
}

TEST(Ed25519, SignVerifyRoundtrip) {
  const auto seed = from_hex(kSeed1);
  const auto pk = derive_public(seed);
  const Bytes msg = to_bytes("probft consensus message");
  const auto sig = sign(seed, msg);
  EXPECT_TRUE(verify(pk, msg, sig));
}

TEST(Ed25519, KeyCacheEvictionKeepsResults) {
  // Passes over more keys than the per-thread caches hold: every pass
  // re-expands evicted seeds and re-decompresses evicted public keys, and
  // must reproduce the first pass exactly. A malformed key stays rejected
  // whether or not its verdict is cached.
  constexpr std::size_t kKeys = 150;
  const Bytes msg = to_bytes("cache-eviction");
  const Bytes bad_pk(32, 0xff);
  std::vector<Bytes> seeds, pks, sigs;
  for (std::size_t i = 0; i < kKeys; ++i) {
    seeds.push_back(sha256(to_bytes("evict-" + std::to_string(i))));
    pks.push_back(derive_public(seeds[i]));
    sigs.push_back(sign(seeds[i], msg));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < kKeys; ++i) {
      ASSERT_EQ(derive_public(seeds[i]), pks[i]) << pass << "/" << i;
      ASSERT_EQ(sign(seeds[i], msg), sigs[i]) << pass << "/" << i;
      ASSERT_TRUE(verify(pks[i], msg, sigs[i])) << pass << "/" << i;
      ASSERT_FALSE(verify(pks[(i + 1) % kKeys], msg, sigs[i]))
          << pass << "/" << i;
      ASSERT_FALSE(verify(bad_pk, msg, sigs[i])) << pass << "/" << i;
    }
  }
}

TEST(Ed25519, VerifyRejectsTamperedMessage) {
  const auto seed = from_hex(kSeed1);
  const auto pk = derive_public(seed);
  Bytes msg = to_bytes("original");
  const auto sig = sign(seed, msg);
  msg[0] ^= 1;
  EXPECT_FALSE(verify(pk, msg, sig));
}

TEST(Ed25519, VerifyRejectsTamperedSignature) {
  const auto seed = from_hex(kSeed1);
  const auto pk = derive_public(seed);
  const Bytes msg = to_bytes("message");
  auto sig = sign(seed, msg);
  for (std::size_t i : {0UL, 31UL, 32UL, 63UL}) {
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(verify(pk, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519, VerifyRejectsWrongKey) {
  const auto sig = sign(from_hex(kSeed1), to_bytes("m"));
  EXPECT_FALSE(verify(from_hex(kPub2), to_bytes("m"), sig));
}

TEST(Ed25519, VerifyRejectsMalformedSizes) {
  const auto seed = from_hex(kSeed1);
  const auto pk = derive_public(seed);
  const Bytes msg = to_bytes("m");
  const auto sig = sign(seed, msg);
  EXPECT_FALSE(verify(Bytes(31, 0), msg, sig));
  EXPECT_FALSE(verify(pk, msg, Bytes(63, 0)));
  EXPECT_FALSE(verify(pk, msg, Bytes{}));
}

TEST(Ed25519, VerifyRejectsOversizedS) {
  const auto seed = from_hex(kSeed1);
  const auto pk = derive_public(seed);
  const Bytes msg = to_bytes("m");
  auto sig = sign(seed, msg);
  // Force S >= L by setting its top byte to 0xff (L < 2^253).
  sig[63] = 0xff;
  EXPECT_FALSE(verify(pk, msg, sig));
}

TEST(Ed25519, SigningIsDeterministic) {
  const auto seed = from_hex(kSeed2);
  const Bytes msg = to_bytes("same message");
  EXPECT_EQ(sign(seed, msg), sign(seed, msg));
}

TEST(Ed25519, DistinctMessagesDistinctSignatures) {
  const auto seed = from_hex(kSeed2);
  EXPECT_NE(sign(seed, to_bytes("a")), sign(seed, to_bytes("b")));
}

TEST(Ed25519, LargeMessage) {
  const auto seed = from_hex(kSeed1);
  const auto pk = derive_public(seed);
  const Bytes msg(4096, 0x5c);
  EXPECT_TRUE(verify(pk, msg, sign(seed, msg)));
}

// ---- batch verification ----

struct BatchFixture {
  std::vector<Bytes> pks, msgs, sigs;
  void add(const Bytes& seed, Bytes msg) {
    pks.push_back(derive_public(seed));
    sigs.push_back(sign(seed, msg));
    msgs.push_back(std::move(msg));
  }
  [[nodiscard]] std::vector<SigCheck> checks() const {
    std::vector<SigCheck> out;
    for (std::size_t i = 0; i < pks.size(); ++i) {
      out.push_back({ByteSpan(pks[i].data(), pks[i].size()),
                     ByteSpan(msgs[i].data(), msgs[i].size()),
                     ByteSpan(sigs[i].data(), sigs[i].size())});
    }
    return out;
  }
};

TEST(Ed25519Batch, EmptyBatchIsVacuouslyTrue) {
  EXPECT_TRUE(verify_batch({}));
}

TEST(Ed25519Batch, AllValidSignaturesPass) {
  BatchFixture b;
  b.add(from_hex(kSeed1), Bytes{});
  b.add(from_hex(kSeed2), Bytes{0x72});
  for (int i = 0; i < 6; ++i) {
    b.add(from_hex(kSeed1), to_bytes("message-" + std::to_string(i)));
  }
  EXPECT_TRUE(verify_batch(b.checks()));
}

TEST(Ed25519Batch, OneTamperedSignatureFailsTheBatch) {
  BatchFixture b;
  for (int i = 0; i < 8; ++i) {
    b.add(from_hex(kSeed1), to_bytes("message-" + std::to_string(i)));
  }
  b.sigs[5][40] ^= 1;
  EXPECT_FALSE(verify_batch(b.checks()));
}

TEST(Ed25519Batch, OneTamperedMessageFailsTheBatch) {
  BatchFixture b;
  for (int i = 0; i < 4; ++i) {
    b.add(from_hex(kSeed2), to_bytes("message-" + std::to_string(i)));
  }
  b.msgs[2][0] ^= 1;
  EXPECT_FALSE(verify_batch(b.checks()));
}

TEST(Ed25519Batch, SwappedSignaturesFailTheBatch) {
  // Both signatures are individually valid for the OTHER item; a naive
  // sum-only check without per-item random coefficients would cancel.
  BatchFixture b;
  b.add(from_hex(kSeed1), to_bytes("alpha"));
  b.add(from_hex(kSeed1), to_bytes("beta"));
  std::swap(b.sigs[0], b.sigs[1]);
  EXPECT_FALSE(verify_batch(b.checks()));
}

TEST(Ed25519Batch, MalformedMemberFailsTheBatch) {
  BatchFixture b;
  b.add(from_hex(kSeed1), to_bytes("x"));
  b.add(from_hex(kSeed2), to_bytes("y"));
  b.sigs[1].resize(10);  // truncated signature
  EXPECT_FALSE(verify_batch(b.checks()));
}

TEST(Ed25519Batch, SingleItemMatchesIndividualVerify) {
  BatchFixture good;
  good.add(from_hex(kSeed1), to_bytes("solo"));
  EXPECT_TRUE(verify_batch(good.checks()));
  good.sigs[0][3] ^= 1;
  EXPECT_FALSE(verify_batch(good.checks()));
}

TEST(Ed25519Batch, SmallOrderDefectVerdictMatchesSingleVerify) {
  // A Byzantine signer with an ordinary keypair can publish a signature
  // whose only flaw is a small-order (torsion) component: pick R' = R + T
  // up front and compute s against k = H(R' ‖ A ‖ M), so the defect in
  // the verification equation is exactly −T. With a cofactorless single
  // check and a randomized batch equation, the batch used to accept such
  // a signature with probability ~1/ord(T) while verify() always
  // rejected — per-replica divergence. Both checks are cofactored now and
  // must agree (accept) on every batch composition.
  namespace curve = probft::crypto::curve;

  // Find a torsion point: [L]P for any curve point P lies in the 8-torsion
  // subgroup; retry candidates until it is not the identity.
  curve::Point torsion = curve::point_identity();
  for (std::uint8_t c = 1; c != 0 && curve::point_is_identity(torsion); ++c) {
    const Bytes candidate = sha256(ByteSpan(&c, 1));
    const auto p =
        curve::point_decompress(ByteSpan(candidate.data(), candidate.size()));
    if (!p) continue;
    torsion = curve::point_scalar_mul(curve::group_order(), *p);
  }
  ASSERT_FALSE(curve::point_is_identity(torsion));

  // Re-derive the RFC 8032 secret scalar for kSeed1 (expand + clamp).
  const Bytes seed = from_hex(kSeed1);
  const auto h = Sha512::hash(ByteSpan(seed.data(), seed.size()));
  std::uint8_t scalar_bytes[32];
  for (int i = 0; i < 32; ++i) scalar_bytes[i] = h[static_cast<std::size_t>(i)];
  scalar_bytes[0] &= 248;
  scalar_bytes[31] &= 127;
  scalar_bytes[31] |= 64;
  const curve::U256 a = curve::sc_reduce(ByteSpan(scalar_bytes, 32));
  const Bytes pub = derive_public(seed);
  const Bytes msg = to_bytes("torsion-defect-message");

  // Attacker-crafted signature: R' = R + T, s = r + H(R'‖A‖M)·a mod L.
  const curve::U256 r = curve::sc_reduce_wide(ByteSpan(h.data(), h.size()));
  const curve::Point r_point =
      curve::point_scalar_mul(r, curve::point_base());
  const Bytes r_prime =
      curve::point_compress(curve::point_add(r_point, torsion));
  Sha512 h_k;
  h_k.update(ByteSpan(r_prime.data(), r_prime.size()));
  h_k.update(ByteSpan(pub.data(), pub.size()));
  h_k.update(ByteSpan(msg.data(), msg.size()));
  const auto k_hash = h_k.finalize();
  const curve::U256 k =
      curve::sc_reduce_wide(ByteSpan(k_hash.data(), k_hash.size()));
  const curve::U256 s = curve::sc_muladd(k, a, r);
  Bytes sig = r_prime;
  std::uint8_t s_bytes[32];
  curve::u256_to_le(s, s_bytes);
  sig.insert(sig.end(), s_bytes, s_bytes + 32);

  EXPECT_TRUE(verify(pub, msg, sig));  // cofactored single check accepts
  // Batch verdict must match across many compositions (each changes the
  // Fiat–Shamir coefficients z_i).
  for (int round = 0; round < 16; ++round) {
    BatchFixture b;
    b.pks.push_back(pub);
    b.msgs.push_back(msg);
    b.sigs.push_back(sig);
    for (int extra = 0; extra <= round; ++extra) {
      b.add(from_hex(kSeed2),
            to_bytes("filler-" + std::to_string(round) + "-" +
                     std::to_string(extra)));
    }
    EXPECT_TRUE(verify_batch(b.checks())) << "round " << round;
  }
  // A genuinely bad signature (large-order defect) stays rejected by both.
  Bytes bad = sig;
  bad[40] ^= 1;
  EXPECT_FALSE(verify(pub, msg, bad));
  BatchFixture bb;
  bb.pks.push_back(pub);
  bb.msgs.push_back(msg);
  bb.sigs.push_back(bad);
  EXPECT_FALSE(verify_batch(bb.checks()));
}

}  // namespace
}  // namespace probft::crypto::ed25519
