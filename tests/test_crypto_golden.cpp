// Golden byte-identity pin for the edwards25519 stack. Every public key,
// signature, VRF proof and VRF output over a fixed grid of seeds and
// message lengths is folded into one SHA-256, compared against a constant;
// accept/reject verdicts on hostile encodings (non-canonical y, -0,
// small-order R and A, s = L and L-1, identity R, swapped signatures,
// tampered VRF proofs) are pinned one by one. Any change to the curve
// kernels must leave every value here untouched.
#include <gtest/gtest.h>

#include <string>

#include "common/bytes.hpp"
#include "crypto/curve25519.hpp"
#include "crypto/ecvrf.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace probft::crypto {
namespace {

namespace curve = probft::crypto::curve;

constexpr std::size_t kGridSeeds = 32;
constexpr std::size_t kGridLengths[] = {0, 1, 63, 64, 1000};

Bytes grid_seed(std::size_t i) {
  return sha256(to_bytes("probft-golden-seed-" + std::to_string(i)));
}

Bytes grid_message(std::size_t seed_index, std::size_t len) {
  Bytes msg(len);
  for (std::size_t j = 0; j < len; ++j) {
    msg[j] = static_cast<std::uint8_t>(seed_index * 131 + j * 7 + len);
  }
  return msg;
}

TEST(CryptoGolden, GridDigestIsPinned) {
  Sha256 digest;
  for (std::size_t i = 0; i < kGridSeeds; ++i) {
    const Bytes seed = grid_seed(i);
    const Bytes pk = ed25519::derive_public(seed);
    digest.update(pk);
    for (const std::size_t len : kGridLengths) {
      const Bytes msg = grid_message(i, len);
      const Bytes sig = ed25519::sign(seed, msg);
      ASSERT_TRUE(ed25519::verify(pk, msg, sig)) << i << "/" << len;
      digest.update(sig);
      const auto vrf = ecvrf::prove(seed, msg);
      const auto beta = ecvrf::verify(pk, msg, vrf.proof);
      ASSERT_TRUE(beta.has_value()) << i << "/" << len;
      ASSERT_EQ(*beta, vrf.output);
      digest.update(vrf.proof);
      digest.update(vrf.output);
    }
  }
  const auto d = digest.finalize();
  EXPECT_EQ(to_hex(ByteSpan(d.data(), d.size())),
            "60160329b17934c7df4039631b1fb037617551072ed4b8cacec14cce9992f466");
}

// ---- hostile-input verdicts ----

// p + 1: a non-canonical encoding of y = 1.
const char* kNonCanonicalY =
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
// y = 1 with the sign bit set: "-0".
const char* kMinusZero =
    "0100000000000000000000000000000000000000000000000000000000000080";
const char* kIdentity =
    "0100000000000000000000000000000000000000000000000000000000000000";
// A point of order 8.
const char* kOrder8 =
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a";

Bytes le32(const curve::U256& x) {
  Bytes out(32);
  curve::u256_to_le(x, out.data());
  return out;
}

Bytes concat(Bytes a, const Bytes& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

curve::U256 challenge(const Bytes& r, const Bytes& pk, const Bytes& msg) {
  Sha512 h;
  h.update(r);
  h.update(pk);
  h.update(msg);
  const auto k = h.finalize();
  return curve::sc_reduce_wide(ByteSpan(k.data(), k.size()));
}

curve::U256 secret_scalar(const Bytes& seed) {
  const auto h = Sha512::hash(seed);
  std::uint8_t a[32];
  for (int i = 0; i < 32; ++i) a[i] = h[static_cast<std::size_t>(i)];
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
  return curve::sc_reduce(ByteSpan(a, 32));
}

TEST(CryptoGolden, SmallOrderFixturesAreWhatTheyClaim) {
  const auto t = curve::point_decompress(from_hex(kOrder8));
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(curve::point_is_identity(*t));
  EXPECT_TRUE(curve::point_is_identity(curve::point_mul_cofactor(*t)));
  EXPECT_FALSE(curve::point_decompress(from_hex(kNonCanonicalY)).has_value());
  EXPECT_FALSE(curve::point_decompress(from_hex(kMinusZero)).has_value());
}

TEST(CryptoGolden, Ed25519HostileVerdictsArePinned) {
  const Bytes seed = grid_seed(0);
  const Bytes pk = ed25519::derive_public(seed);
  const Bytes msg = to_bytes("hostile");
  const Bytes other = to_bytes("hostile-other");
  const Bytes sig = ed25519::sign(seed, msg);
  const Bytes sig_other = ed25519::sign(seed, other);
  const Bytes s_part(sig.begin() + 32, sig.end());

  EXPECT_TRUE(ed25519::verify(pk, msg, sig));
  // Non-canonical y and -0, as the public key and as R.
  EXPECT_FALSE(ed25519::verify(from_hex(kNonCanonicalY), msg, sig));
  EXPECT_FALSE(ed25519::verify(from_hex(kMinusZero), msg, sig));
  EXPECT_FALSE(ed25519::verify(pk, msg, concat(from_hex(kNonCanonicalY),
                                               s_part)));
  EXPECT_FALSE(ed25519::verify(pk, msg, concat(from_hex(kMinusZero), s_part)));
  // Swapped signatures.
  EXPECT_FALSE(ed25519::verify(pk, msg, sig_other));
  EXPECT_FALSE(ed25519::verify(pk, other, sig));
  EXPECT_TRUE(ed25519::verify(pk, other, sig_other));

  // Small-order R with an honest key: s = k*a satisfies the cofactored
  // equation because [8]R vanishes.
  const Bytes r_small = from_hex(kOrder8);
  const curve::U256 a = secret_scalar(seed);
  const curve::U256 k_small = challenge(r_small, pk, msg);
  EXPECT_TRUE(ed25519::verify(
      pk, msg, concat(r_small, le32(curve::sc_mul(k_small, a)))));
  // Identity R with an honest key and s = 0 does not.
  EXPECT_FALSE(ed25519::verify(pk, msg,
                               concat(from_hex(kIdentity), Bytes(32, 0))));

  // Small-order A: any (R = rB, s = r) passes the cofactored check.
  const Bytes a_small = from_hex(kOrder8);
  const curve::U256 r = curve::sc_reduce_wide(Sha512::hash(msg));
  const Bytes r_enc =
      curve::point_compress(curve::point_scalar_mul(r, curve::point_base()));
  EXPECT_TRUE(ed25519::verify(a_small, msg, concat(r_enc, le32(r))));
  EXPECT_TRUE(ed25519::verify(from_hex(kIdentity), msg,
                              concat(r_enc, le32(r))));
  // Identity R, small-order A, s = 0.
  EXPECT_TRUE(ed25519::verify(a_small, msg,
                              concat(from_hex(kIdentity), Bytes(32, 0))));
  // s = L - 1 with R = -B against a small-order A: accepted.
  curve::U256 l_minus_1;
  curve::u256_sub(l_minus_1, curve::group_order(), curve::u256_one());
  const Bytes minus_b =
      curve::point_compress(curve::point_negate(curve::point_base()));
  EXPECT_TRUE(ed25519::verify(a_small, msg, concat(minus_b, le32(l_minus_1))));
  // s = L with identity R against a small-order A: [L]B is the identity,
  // so only the range check rejects it.
  EXPECT_FALSE(ed25519::verify(a_small, msg,
                               concat(from_hex(kIdentity),
                                      le32(curve::group_order()))));
  // s = L - 1 on an honest key with an honest R: rejected.
  EXPECT_FALSE(ed25519::verify(
      pk, msg, concat(Bytes(sig.begin(), sig.begin() + 32), le32(l_minus_1))));
  // s + L on an otherwise valid signature: rejected by the range check.
  EXPECT_FALSE(ed25519::verify(
      pk, msg,
      concat(Bytes(sig.begin(), sig.begin() + 32),
             le32([&] {
               curve::U256 s = curve::u256_from_le(s_part);
               curve::U256 out;
               curve::u256_add(out, s, curve::group_order());
               return out;
             }()))));

  // Batch verdicts over the same hostile items.
  const Bytes small_r_sig =
      concat(r_small, le32(curve::sc_mul(k_small, a)));
  const Bytes small_a_sig = concat(r_enc, le32(r));
  std::vector<ed25519::SigCheck> good = {
      {pk, msg, sig}, {pk, other, sig_other}, {pk, msg, small_r_sig},
      {a_small, msg, small_a_sig}};
  EXPECT_TRUE(ed25519::verify_batch(good));
  std::vector<ed25519::SigCheck> swapped = {
      {pk, msg, sig}, {pk, other, sig}, {a_small, msg, small_a_sig}};
  EXPECT_FALSE(ed25519::verify_batch(swapped));
}

TEST(CryptoGolden, EcvrfHostileVerdictsArePinned) {
  const Bytes seed = grid_seed(1);
  const Bytes pk = ed25519::derive_public(seed);
  const Bytes alpha = to_bytes("7|prepare");
  const auto vrf = ecvrf::prove(seed, alpha);
  ASSERT_TRUE(ecvrf::verify(pk, alpha, vrf.proof).has_value());

  auto tampered = [&](std::size_t byte, std::uint8_t mask) {
    Bytes p = vrf.proof;
    p[byte] ^= mask;
    return ecvrf::verify(pk, alpha, p).has_value();
  };
  EXPECT_FALSE(tampered(0, 0x01));   // Gamma
  EXPECT_FALSE(tampered(31, 0x80));  // Gamma's sign bit
  EXPECT_FALSE(tampered(32, 0x01));  // c
  EXPECT_FALSE(tampered(47, 0x80));  // c, top bit
  EXPECT_FALSE(tampered(48, 0x01));  // s
  EXPECT_FALSE(tampered(79, 0x01));  // s, top byte

  auto with_gamma = [&](const Bytes& gamma) {
    Bytes p = gamma;
    p.insert(p.end(), vrf.proof.begin() + 32, vrf.proof.end());
    return ecvrf::verify(pk, alpha, p).has_value();
  };
  EXPECT_FALSE(with_gamma(from_hex(kNonCanonicalY)));
  EXPECT_FALSE(with_gamma(from_hex(kMinusZero)));
  EXPECT_FALSE(with_gamma(from_hex(kOrder8)));
  EXPECT_FALSE(with_gamma(from_hex(kIdentity)));
  // Gamma plus a torsion component: same output after cofactor clearing,
  // but the challenge no longer matches.
  const auto gamma = curve::point_decompress(
      ByteSpan(vrf.proof.data(), 32));
  ASSERT_TRUE(gamma.has_value());
  EXPECT_FALSE(with_gamma(curve::point_compress(curve::point_add(
      *gamma, *curve::point_decompress(from_hex(kOrder8))))));

  // s = L and s + L.
  auto with_s = [&](const curve::U256& s) {
    Bytes p(vrf.proof.begin(), vrf.proof.begin() + 48);
    const Bytes enc = le32(s);
    p.insert(p.end(), enc.begin(), enc.end());
    return ecvrf::verify(pk, alpha, p).has_value();
  };
  EXPECT_FALSE(with_s(curve::group_order()));
  curve::U256 s_plus_l;
  curve::u256_add(s_plus_l,
                  curve::u256_from_le(ByteSpan(vrf.proof.data() + 48, 32)),
                  curve::group_order());
  EXPECT_FALSE(with_s(s_plus_l));

  // Wrong key, small-order key, non-canonical key.
  EXPECT_FALSE(ecvrf::verify(ed25519::derive_public(grid_seed(2)), alpha,
                             vrf.proof)
                   .has_value());
  EXPECT_FALSE(ecvrf::verify(from_hex(kOrder8), alpha, vrf.proof).has_value());
  EXPECT_FALSE(
      ecvrf::verify(from_hex(kNonCanonicalY), alpha, vrf.proof).has_value());
}

}  // namespace
}  // namespace probft::crypto
