// Ed25519 signatures (RFC 8032), from scratch.
//
// Secret keys are the 32-byte seed; public keys and signatures use the
// standard RFC 8032 encodings, so outputs are interoperable with any
// conforming implementation.
#pragma once

#include <array>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/curve25519.hpp"

namespace probft::crypto::ed25519 {

inline constexpr std::size_t kSeedSize = 32;
inline constexpr std::size_t kPublicKeySize = 32;
inline constexpr std::size_t kSignatureSize = 64;

/// Derives the public key from a 32-byte seed.
[[nodiscard]] Bytes derive_public(ByteSpan seed);

/// Produces a deterministic 64-byte signature (R || S).
[[nodiscard]] Bytes sign(ByteSpan seed, ByteSpan message);

/// Verifies a signature; tolerates (rejects) malformed inputs of any size.
/// Uses the COFACTORED equation [8]sB == [8](R + kA) (RFC 8032 allows
/// either form) so that the per-item verdict is always consistent with
/// verify_batch — a cofactorless single check would reject small-order
/// tweaks of a signature that the batch equation sometimes accepts.
[[nodiscard]] bool verify(ByteSpan public_key, ByteSpan message,
                          ByteSpan signature);

/// One (public key, message, signature) triple for batch verification. The
/// spans must stay valid for the duration of the verify_batch call.
struct SigCheck {
  ByteSpan public_key;
  ByteSpan message;
  ByteSpan signature;
};

/// True iff every triple verifies, checked as ONE random-linear-combination
/// group equation: [8][Σ z_i s_i]B == [8](Σ [z_i]R_i + [z_i k_i]A_i) with
/// 128-bit coefficients z_i derived by hashing the whole batch (Fiat–Shamir
/// style, so an adversary cannot choose signatures against known
/// coefficients). The combined equation is evaluated with a shared-doubling
/// multi-scalar multiplication, which is what amortizes the per-signature
/// cost. Cofactored on both sides to match verify(): every individually
/// valid signature satisfies its cofactored equation exactly, so there are
/// no false rejections, and a false acceptance requires the adversary to
/// hit a random 128-bit linear relation (negligible).
[[nodiscard]] bool verify_batch(const std::vector<SigCheck>& checks);

/// A seed's RFC 8032 expansion: the secret scalar a (clamped, then reduced
/// mod L; aB is unchanged because B has order L), the nonce-derivation
/// prefix, and the compressed public key A = aB. The ECVRF uses the same
/// keypair.
struct ExpandedKey {
  curve::U256 scalar;
  std::array<std::uint8_t, 32> prefix;
  std::array<std::uint8_t, kPublicKeySize> public_key;
};

/// The expansion of `seed`, from a bounded per-thread cache keyed by the
/// whole seed (a hit skips a base multiplication and a compression).
/// Throws std::invalid_argument unless the seed is 32 bytes.
[[nodiscard]] ExpandedKey expanded_key(ByteSpan seed);

/// The decompressed public key, std::nullopt if the encoding is not a
/// curve point; from a bounded per-thread cache keyed by the encoding
/// (the directory holds n + 1 fixed keys).
[[nodiscard]] std::optional<curve::Point> public_point(ByteSpan public_key);

}  // namespace probft::crypto::ed25519
