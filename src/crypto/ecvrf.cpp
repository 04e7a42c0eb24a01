#include "crypto/ecvrf.hpp"

#include <stdexcept>

#include "crypto/curve25519.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha512.hpp"

namespace probft::crypto::ecvrf {

namespace curve = probft::crypto::curve;

namespace {

constexpr std::uint8_t kSuite = 0x03;
constexpr std::uint8_t kDomainHashToCurve = 0x01;
constexpr std::uint8_t kDomainChallenge = 0x02;
constexpr std::uint8_t kDomainProofToHash = 0x03;
constexpr std::uint8_t kDomainBack = 0x00;

/// Try-and-increment hash-to-curve: hash (suite || 0x01 || Y || alpha || ctr)
/// until the first 32 bytes decompress to a curve point; clear the cofactor.
std::optional<curve::Point> hash_to_curve(ByteSpan public_key,
                                          ByteSpan alpha) {
  for (int ctr = 0; ctr < 256; ++ctr) {
    Sha512 h;
    const std::uint8_t head[2] = {kSuite, kDomainHashToCurve};
    h.update(ByteSpan(head, 2));
    h.update(public_key);
    h.update(alpha);
    const std::uint8_t tail[2] = {static_cast<std::uint8_t>(ctr),
                                  kDomainBack};
    h.update(ByteSpan(tail, 2));
    const auto digest = h.finalize();
    const auto candidate =
        curve::point_decompress(ByteSpan(digest.data(), 32));
    if (!candidate) continue;
    const curve::Point cleared = curve::point_mul_cofactor(*candidate);
    if (curve::point_is_identity(cleared)) continue;
    return cleared;
  }
  return std::nullopt;  // cryptographically unreachable
}

/// 16-byte challenge from four points; H and Gamma arrive already encoded.
Bytes hash_points(ByteSpan h_enc, ByteSpan gamma_enc, const curve::Point& u,
                  const curve::Point& v) {
  Sha512 h;
  const std::uint8_t head[2] = {kSuite, kDomainChallenge};
  h.update(ByteSpan(head, 2));
  h.update(h_enc);
  h.update(gamma_enc);
  for (const auto* p : {&u, &v}) {
    std::uint8_t compressed[32];
    curve::point_compress(*p, compressed);
    h.update(ByteSpan(compressed, 32));
  }
  const std::uint8_t tail[1] = {kDomainBack};
  h.update(ByteSpan(tail, 1));
  const auto digest = h.finalize();
  return Bytes(digest.begin(), digest.begin() + 16);
}

curve::U256 challenge_to_scalar(ByteSpan c16) {
  std::uint8_t buf[32] = {};
  for (int i = 0; i < 16; ++i) buf[i] = c16[static_cast<std::size_t>(i)];
  return curve::u256_from_le(ByteSpan(buf, 32));
}

Bytes gamma_to_output(const curve::Point& gamma) {
  Sha512 h;
  const std::uint8_t head[2] = {kSuite, kDomainProofToHash};
  h.update(ByteSpan(head, 2));
  const Bytes cleared =
      curve::point_compress(curve::point_mul_cofactor(gamma));
  h.update(ByteSpan(cleared.data(), cleared.size()));
  const std::uint8_t tail[1] = {kDomainBack};
  h.update(ByteSpan(tail, 1));
  const auto digest = h.finalize();
  return Bytes(digest.begin(), digest.end());
}

}  // namespace

Proof prove(ByteSpan seed, ByteSpan alpha) {
  const ed25519::ExpandedKey key = ed25519::expanded_key(seed);
  const auto h_opt = hash_to_curve(
      ByteSpan(key.public_key.data(), key.public_key.size()), alpha);
  if (!h_opt) throw std::runtime_error("ecvrf: hash_to_curve failed");
  const curve::Point& h = *h_opt;
  const Bytes h_enc = curve::point_compress(h);
  // Gamma = x*H and k*H share one table of H's odd multiples.
  const curve::PointTable h_table = curve::point_table(h);

  const curve::Point gamma = curve::point_scalar_mul(key.scalar, h_table);
  Proof out;
  out.proof = curve::point_compress(gamma);

  // Deterministic nonce: SHA-512(prefix || H).
  Sha512 nonce_hash;
  nonce_hash.update(ByteSpan(key.prefix.data(), key.prefix.size()));
  nonce_hash.update(ByteSpan(h_enc.data(), h_enc.size()));
  const auto nonce_digest = nonce_hash.finalize();
  const curve::U256 k = curve::sc_reduce_wide(
      ByteSpan(nonce_digest.data(), nonce_digest.size()));

  const Bytes c16 = hash_points(
      ByteSpan(h_enc.data(), h_enc.size()), ByteSpan(out.proof.data(), 32),
      curve::point_base_mul(k), curve::point_scalar_mul(k, h_table));
  const curve::U256 c = challenge_to_scalar(ByteSpan(c16.data(), c16.size()));

  const curve::U256 s = curve::sc_muladd(c, key.scalar, k);

  out.proof.insert(out.proof.end(), c16.begin(), c16.end());
  std::uint8_t s_bytes[32];
  curve::u256_to_le(s, s_bytes);
  out.proof.insert(out.proof.end(), s_bytes, s_bytes + 32);
  out.output = gamma_to_output(gamma);
  return out;
}

std::optional<Bytes> verify(ByteSpan public_key, ByteSpan alpha,
                            ByteSpan proof) {
  if (public_key.size() != 32 || proof.size() != kProofSize) {
    return std::nullopt;
  }
  const auto y_opt = ed25519::public_point(public_key);
  if (!y_opt) return std::nullopt;
  const ByteSpan gamma_enc = proof.subspan(0, 32);
  const auto gamma_opt = curve::point_decompress(gamma_enc);
  if (!gamma_opt) return std::nullopt;

  const ByteSpan c16 = proof.subspan(32, 16);
  const curve::U256 c = challenge_to_scalar(c16);
  const curve::U256 s = curve::u256_from_le(proof.subspan(48, 32));
  if (curve::u256_cmp(s, curve::group_order()) >= 0) return std::nullopt;

  const auto h_opt = hash_to_curve(public_key, alpha);
  if (!h_opt) return std::nullopt;
  const curve::Point& h = *h_opt;
  const Bytes h_enc = curve::point_compress(h);

  // U = s*B - c*Y ; V = s*H - c*Gamma. Y and Gamma may carry torsion, so
  // c is used as it is, never reduced. c has 128 bits: the comb's s*B plus
  // 128 doublings for c*Y beat one Straus sum's 253 shared doublings,
  // while V's two variable bases share them.
  const curve::Point u = curve::point_add(
      curve::point_base_mul(s),
      curve::point_negate(curve::point_scalar_mul(c, *y_opt)));
  const curve::Point v = curve::point_multi_scalar_mul(
      curve::u256_zero(), {{s, h}, {c, curve::point_negate(*gamma_opt)}});

  // A decompressed canonical encoding compresses back to itself, so the
  // proof's own Gamma bytes stand in for compress(Gamma).
  const Bytes c_check =
      hash_points(ByteSpan(h_enc.data(), h_enc.size()), gamma_enc, u, v);
  if (!ct_equal(ByteSpan(c_check.data(), c_check.size()), c16)) {
    return std::nullopt;
  }
  return gamma_to_output(*gamma_opt);
}

Bytes proof_to_output(ByteSpan proof) {
  if (proof.size() != kProofSize) {
    throw std::invalid_argument("ecvrf: bad proof size");
  }
  const auto gamma_opt = curve::point_decompress(proof.subspan(0, 32));
  if (!gamma_opt) throw std::invalid_argument("ecvrf: bad gamma encoding");
  return gamma_to_output(*gamma_opt);
}

}  // namespace probft::crypto::ecvrf
