#include "crypto/ed25519.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/curve25519.hpp"
#include "crypto/sha512.hpp"

namespace probft::crypto::ed25519 {

namespace curve = probft::crypto::curve;

namespace {

/// A bounded map from 32-byte keys to values, replaced first in first out.
/// Each thread owns its own (thread_local below), so parallel sweep
/// workers calling the suite concurrently share nothing and take no lock.
template <class V>
class KeyCache {
 public:
  static constexpr std::size_t kCapacity = 64;

  template <class Compute>
  V get(ByteSpan key, Compute compute) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (std::equal(key.begin(), key.end(), slots_[i].key.begin())) {
        return slots_[i].value;
      }
    }
    V value = compute();
    Slot& slot = slots_[next_];
    std::copy(key.begin(), key.end(), slot.key.begin());
    slot.value = value;
    next_ = (next_ + 1) % kCapacity;
    size_ = std::min(size_ + 1, kCapacity);
    return value;
  }

 private:
  struct Slot {
    std::array<std::uint8_t, 32> key{};
    V value{};
  };
  std::array<Slot, kCapacity> slots_{};
  std::size_t size_ = 0;
  std::size_t next_ = 0;
};

ExpandedKey expand(ByteSpan seed) {
  const auto h = Sha512::hash(seed);
  std::uint8_t scalar_bytes[32];
  for (int i = 0; i < 32; ++i) scalar_bytes[i] = h[static_cast<std::size_t>(i)];
  scalar_bytes[0] &= 248;
  scalar_bytes[31] &= 127;
  scalar_bytes[31] |= 64;

  ExpandedKey out;
  out.scalar = curve::sc_reduce(ByteSpan(scalar_bytes, 32));
  for (int i = 0; i < 32; ++i) {
    out.prefix[static_cast<std::size_t>(i)] =
        h[static_cast<std::size_t>(32 + i)];
  }
  curve::point_compress(curve::point_base_mul(out.scalar),
                        out.public_key.data());
  return out;
}

/// k = SHA-512(R || A || M) mod L.
curve::U256 challenge(ByteSpan r, ByteSpan public_key, ByteSpan message) {
  Sha512 h;
  h.update(r);
  h.update(public_key);
  h.update(message);
  const auto k = h.finalize();
  return curve::sc_reduce_wide(ByteSpan(k.data(), k.size()));
}

}  // namespace

ExpandedKey expanded_key(ByteSpan seed) {
  if (seed.size() != kSeedSize) {
    throw std::invalid_argument("ed25519: seed must be 32 bytes");
  }
  thread_local KeyCache<ExpandedKey> cache;
  return cache.get(seed, [&] { return expand(seed); });
}

std::optional<curve::Point> public_point(ByteSpan public_key) {
  if (public_key.size() != kPublicKeySize) return std::nullopt;
  thread_local KeyCache<std::optional<curve::Point>> cache;
  return cache.get(public_key,
                   [&] { return curve::point_decompress(public_key); });
}

Bytes derive_public(ByteSpan seed) {
  const ExpandedKey key = expanded_key(seed);
  return Bytes(key.public_key.begin(), key.public_key.end());
}

Bytes sign(ByteSpan seed, ByteSpan message) {
  const ExpandedKey key = expanded_key(seed);
  const ByteSpan public_key(key.public_key.data(), key.public_key.size());

  Sha512 h_r;
  h_r.update(ByteSpan(key.prefix.data(), key.prefix.size()));
  h_r.update(message);
  const auto r_hash = h_r.finalize();
  const curve::U256 r =
      curve::sc_reduce_wide(ByteSpan(r_hash.data(), r_hash.size()));

  Bytes signature(kSignatureSize);
  curve::point_compress(curve::point_base_mul(r), signature.data());
  const curve::U256 k =
      challenge(ByteSpan(signature.data(), 32), public_key, message);

  // S = (r + k * a) mod L.
  curve::u256_to_le(curve::sc_muladd(k, key.scalar, r), signature.data() + 32);
  return signature;
}

bool verify(ByteSpan public_key, ByteSpan message, ByteSpan signature) {
  if (public_key.size() != kPublicKeySize ||
      signature.size() != kSignatureSize) {
    return false;
  }
  const auto a_opt = public_point(public_key);
  if (!a_opt) return false;
  const auto r_opt = curve::point_decompress(signature.subspan(0, 32));
  if (!r_opt) return false;

  const curve::U256 s = curve::u256_from_le(signature.subspan(32, 32));
  if (curve::u256_cmp(s, curve::group_order()) >= 0) return false;
  const curve::U256 k =
      challenge(signature.subspan(0, 32), public_key, message);

  // Cofactored check: [8](S*B - k*A - R) == 0, i.e. [8]S*B == [8](R + k*A).
  // RFC 8032 permits either the cofactored or cofactorless equation; the
  // cofactored form is the one consistent with batch verification
  // (verify_batch below), because a small-order defect T in a malicious R
  // or A is annihilated by the cofactor in BOTH checks, whereas a
  // cofactorless single check would reject a signature the batch equation
  // accepts with probability 1/ord(T) — a per-replica divergence a
  // consensus protocol cannot tolerate. S*B - k*A is one Straus sum.
  const curve::Point sb_minus_ka = curve::point_multi_scalar_mul(
      s, {{k, curve::point_negate(*a_opt)}});
  return curve::point_is_identity(curve::point_mul_cofactor(
      curve::point_add(sb_minus_ka, curve::point_negate(*r_opt))));
}

bool verify_batch(const std::vector<SigCheck>& checks) {
  if (checks.empty()) return true;
  if (checks.size() == 1) {
    return verify(checks[0].public_key, checks[0].message,
                  checks[0].signature);
  }

  struct Parsed {
    curve::Point a, r;
    curve::U256 s, k;
  };
  std::vector<Parsed> parsed;
  parsed.reserve(checks.size());
  Sha512 transcript;
  for (const auto& c : checks) {
    // Any malformed triple fails individually, so the batch answer is false.
    if (c.public_key.size() != kPublicKeySize ||
        c.signature.size() != kSignatureSize) {
      return false;
    }
    const auto a_opt = public_point(c.public_key);
    if (!a_opt) return false;
    const auto r_opt = curve::point_decompress(c.signature.subspan(0, 32));
    if (!r_opt) return false;
    const curve::U256 s = curve::u256_from_le(c.signature.subspan(32, 32));
    if (curve::u256_cmp(s, curve::group_order()) >= 0) return false;
    parsed.push_back({*a_opt, *r_opt, s,
                      challenge(c.signature.subspan(0, 32), c.public_key,
                                c.message)});
    transcript.update(c.public_key);
    transcript.update(c.signature);
    transcript.update(c.message);
  }
  const auto seed = transcript.finalize();

  // Combined equation with per-item 128-bit coefficients z_i:
  //   [Σ z_i s_i] B == Σ [z_i] R_i + [z_i k_i] A_i   (all scalars mod L),
  // evaluated as one Straus sum Σ [z_i] R_i + [z_i k_i] A_i - [Σ z_i s_i] B.
  curve::U256 s_sum{};  // zero
  std::vector<curve::ScalarPoint> terms;
  terms.reserve(2 * parsed.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    Sha512 h_z;
    h_z.update(ByteSpan(seed.data(), seed.size()));
    std::uint8_t index_le[8];
    for (int b = 0; b < 8; ++b) {
      index_le[b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    h_z.update(ByteSpan(index_le, 8));
    const auto z_hash = h_z.finalize();
    std::uint8_t z_bytes[32] = {0};
    for (int b = 0; b < 16; ++b) z_bytes[b] = z_hash[static_cast<std::size_t>(b)];
    if (std::all_of(z_bytes, z_bytes + 16,
                    [](std::uint8_t v) { return v == 0; })) {
      z_bytes[0] = 1;  // z must be nonzero to keep item i in the relation
    }
    const curve::U256 z = curve::u256_from_le(ByteSpan(z_bytes, 32));

    s_sum = curve::sc_muladd(z, parsed[i].s, s_sum);
    terms.push_back({z, parsed[i].r});
    terms.push_back({curve::sc_mul(z, parsed[i].k), parsed[i].a});
  }
  // Cofactored, like the single check: each individually-valid signature
  // satisfies [8](s_i·B − R_i − k_i·A_i) = 0, so the combination holds
  // exactly (no false rejections); a signature failing its cofactored
  // equation survives only if the z_i-weighted sum cancels (negligible
  // with hash-derived 128-bit coefficients).
  const curve::Point defect = curve::point_multi_scalar_mul(
      curve::sc_sub(curve::u256_zero(), s_sum), terms);
  return curve::point_is_identity(curve::point_mul_cofactor(defect));
}

}  // namespace probft::crypto::ed25519
