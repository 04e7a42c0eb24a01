// edwards25519 curve arithmetic (field mod 2^255-19 in 5x51-bit limbs,
// scalars mod L on U256, group operations in extended twisted-Edwards
// coordinates), implemented from scratch. Shared by Ed25519 signatures and
// the ECVRF. Not constant-time (see u256.hpp).
//
// Conventions follow RFC 8032: little-endian encodings, compressed points
// store y with the parity of x in the top bit.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "crypto/u256.hpp"

namespace probft::crypto::curve {

// Re-export the bigint vocabulary so curve users can say curve::U256 etc.
using probft::crypto::U256;
using probft::crypto::U512;
using probft::crypto::u256_add;
using probft::crypto::u256_sub;
using probft::crypto::u256_cmp;
using probft::crypto::u256_mul;
using probft::crypto::u512_mod;
using probft::crypto::u256_from_le;
using probft::crypto::u256_to_le;
using probft::crypto::u256_bit;
using probft::crypto::u256_zero;
using probft::crypto::u256_one;
using probft::crypto::u256_is_zero;

/// The field prime p = 2^255 - 19.
const U256& field_prime();
/// The group order L = 2^252 + 27742317777372353535851937790883648493.
const U256& group_order();

// ---- Field elements ----

/// An element of GF(p) in five 51-bit limbs, little-endian (radix 2^51).
/// Reduction is lazy: every operation accepts limbs below 2^52 and returns
/// limbs below 2^52, so one value has several representations. The
/// canonical value (< p) comes from fe_to_u256, which == and every
/// encoding go through.
struct Fe {
  std::array<std::uint64_t, 5> v{};
  /// Equal as field elements.
  friend bool operator==(const Fe& a, const Fe& b);
};

namespace detail {

inline constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

/// One carry pass with the five carries taken in parallel: limbs below
/// 2^64 come out below 2^52 (limb 0 absorbs 19 times the top carry).
constexpr Fe fe_carry(const Fe& a) {
  const auto& l = a.v;
  return Fe{{(l[0] & kMask51) + 19 * (l[4] >> 51),
             (l[1] & kMask51) + (l[0] >> 51), (l[2] & kMask51) + (l[1] >> 51),
             (l[3] & kMask51) + (l[2] >> 51),
             (l[4] & kMask51) + (l[3] >> 51)}};
}

/// Carries the five 128-bit column sums of a product into limbs. With
/// inputs below 2^52 the columns stay below 2^112 and the top carry below
/// 2^56, so 19 times it fits in limb 0.
inline Fe fe_carry_wide(unsigned __int128 r0, unsigned __int128 r1,
                        unsigned __int128 r2, unsigned __int128 r3,
                        unsigned __int128 r4) {
  Fe h;
  r1 += static_cast<std::uint64_t>(r0 >> 51);
  h.v[0] = static_cast<std::uint64_t>(r0) & kMask51;
  r2 += static_cast<std::uint64_t>(r1 >> 51);
  h.v[1] = static_cast<std::uint64_t>(r1) & kMask51;
  r3 += static_cast<std::uint64_t>(r2 >> 51);
  h.v[2] = static_cast<std::uint64_t>(r2) & kMask51;
  r4 += static_cast<std::uint64_t>(r3 >> 51);
  h.v[3] = static_cast<std::uint64_t>(r3) & kMask51;
  h.v[4] = static_cast<std::uint64_t>(r4) & kMask51;
  h.v[0] += 19 * static_cast<std::uint64_t>(r4 >> 51);
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  return h;
}

inline unsigned __int128 mul64(std::uint64_t x, std::uint64_t y) {
  return static_cast<unsigned __int128>(x) * y;
}

}  // namespace detail

/// x mod p, for any 256-bit x.
constexpr Fe fe_from_u256(const U256& x) {
  using detail::kMask51;
  return Fe{{x.w[0] & kMask51, ((x.w[0] >> 51) | (x.w[1] << 13)) & kMask51,
             ((x.w[1] >> 38) | (x.w[2] << 26)) & kMask51,
             ((x.w[2] >> 25) | (x.w[3] << 39)) & kMask51, x.w[3] >> 12}};
}
/// The canonical value, < p.
U256 fe_to_u256(const Fe& a);

constexpr Fe fe_zero() { return Fe{}; }
constexpr Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }
bool fe_is_zero(const Fe& a);

// The arithmetic is inline: the group operations are nothing but chains
// of these calls.

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe out;
  for (std::size_t i = 0; i < 5; ++i) out.v[i] = a.v[i] + b.v[i];
  return detail::fe_carry(out);
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  // a + 4p - b: 4p's limbs exceed any b limb (< 2^52), so none goes
  // negative.
  constexpr std::uint64_t k4p0 = 4 * (detail::kMask51 - 18);
  constexpr std::uint64_t k4p = 4 * detail::kMask51;
  Fe out;
  out.v[0] = a.v[0] + k4p0 - b.v[0];
  for (std::size_t i = 1; i < 5; ++i) out.v[i] = a.v[i] + k4p - b.v[i];
  return detail::fe_carry(out);
}

inline Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

inline Fe fe_mul(const Fe& f, const Fe& g) {
  using detail::mul64;
  const auto& a = f.v;
  const auto& b = g.v;
  // 2^255 == 19: the columns that wrap past limb 4 come back times 19.
  const std::uint64_t b1 = 19 * b[1], b2 = 19 * b[2], b3 = 19 * b[3],
                      b4 = 19 * b[4];
  return detail::fe_carry_wide(
      mul64(a[0], b[0]) + mul64(a[1], b4) + mul64(a[2], b3) +
          mul64(a[3], b2) + mul64(a[4], b1),
      mul64(a[0], b[1]) + mul64(a[1], b[0]) + mul64(a[2], b4) +
          mul64(a[3], b3) + mul64(a[4], b2),
      mul64(a[0], b[2]) + mul64(a[1], b[1]) + mul64(a[2], b[0]) +
          mul64(a[3], b4) + mul64(a[4], b3),
      mul64(a[0], b[3]) + mul64(a[1], b[2]) + mul64(a[2], b[1]) +
          mul64(a[3], b[0]) + mul64(a[4], b4),
      mul64(a[0], b[4]) + mul64(a[1], b[3]) + mul64(a[2], b[2]) +
          mul64(a[3], b[1]) + mul64(a[4], b[0]));
}

inline Fe fe_sq(const Fe& f) {
  using detail::mul64;
  const auto& a = f.v;
  const std::uint64_t a0_2 = 2 * a[0], a1_2 = 2 * a[1], a2_2 = 2 * a[2],
                      a3_2 = 2 * a[3], a3_19 = 19 * a[3], a4_19 = 19 * a[4];
  return detail::fe_carry_wide(
      mul64(a[0], a[0]) + mul64(a1_2, a4_19) + mul64(a2_2, a3_19),
      mul64(a0_2, a[1]) + mul64(a2_2, a4_19) + mul64(a[3], a3_19),
      mul64(a0_2, a[2]) + mul64(a[1], a[1]) + mul64(a3_2, a4_19),
      mul64(a0_2, a[3]) + mul64(a1_2, a[2]) + mul64(a[4], a4_19),
      mul64(a0_2, a[4]) + mul64(a1_2, a[3]) + mul64(a[2], a[2]));
}

/// a^(p-2) by the standard addition chain (254 squarings + 11 multiplies).
Fe fe_invert(const Fe& a);
/// sqrt(-1) mod p, i.e. 2^((p-1)/4).
const Fe& fe_sqrt_m1();
/// Curve constant d = -121665/121666 mod p.
const Fe& fe_d();

// ---- Group element operations (extended coordinates, a = -1) ----

struct Point {
  Fe X, Y, Z, T;
};

/// Neutral element (0 : 1 : 1 : 0).
Point point_identity();
/// The standard base point B (decompressed from its RFC 8032 encoding).
const Point& point_base();

Point point_add(const Point& p, const Point& q);
Point point_double(const Point& p);
Point point_negate(const Point& p);

/// A point in the form the adders take: (Y+X, Y-X, Z, 2dT).
struct CachedPoint {
  Fe YplusX, YminusX, Z, T2d;
};
/// The odd multiples P, 3P, ..., 15P of one point: the lookup table of a
/// width-5 signed-window (wNAF) multiplication. Build it once to multiply
/// the same point by several scalars.
using PointTable = std::array<CachedPoint, 8>;
PointTable point_table(const Point& p);

/// scalar * P by width-5 wNAF, starting at the scalar's top nonzero digit.
/// Any 256-bit scalar, any point: the scalar is never reduced mod L, so a
/// point carrying a torsion component comes out exact. Not constant-time
/// (see u256.hpp).
Point point_scalar_mul(const U256& scalar, const PointTable& table);
Point point_scalar_mul(const U256& scalar, const Point& p);
/// scalar * B from the precomputed fixed-base comb: 64 signed radix-16
/// digits, at most 64 mixed additions and 4 doublings. B has order L, so
/// the scalar is reduced mod L first.
Point point_base_mul(const U256& scalar);

/// base_scalar * B + Σ scalar_i * P_i by Straus interleaving: one shared
/// chain of doublings from the highest nonzero digit of any scalar, B's
/// digits (width 8) read from a static table, each P_i's (width 5) from a
/// table built per call. Scalars are used as they are, never reduced.
/// Verification-only use; not constant-time.
struct ScalarPoint {
  U256 scalar;
  Point point;
};
Point point_multi_scalar_mul(const U256& base_scalar,
                             const std::vector<ScalarPoint>& terms);
/// Multiplies by the cofactor 8 (three doublings).
Point point_mul_cofactor(const Point& p);

/// Projective equality: X1*Z2 == X2*Z1 && Y1*Z2 == Y2*Z1.
bool point_eq(const Point& p, const Point& q);
bool point_is_identity(const Point& p);

/// RFC 8032 point compression: 32 bytes, y with sign(x) in bit 255.
void point_compress(const Point& p, std::uint8_t out[32]);
Bytes point_compress(const Point& p);
/// Decompression; std::nullopt if the encoding is not a curve point. The
/// inversion and the square root share one exponentiation (RFC 8032
/// 5.1.3).
std::optional<Point> point_decompress(ByteSpan bytes32);

// ---- Scalar (mod L) operations (Barrett reduction) ----

/// Reduces a 64-byte little-endian value mod L (for hash outputs).
U256 sc_reduce_wide(ByteSpan bytes64);
/// Reduces a 32-byte little-endian value mod L.
U256 sc_reduce(ByteSpan bytes32);
U256 sc_mul(const U256& a, const U256& b);
U256 sc_add(const U256& a, const U256& b);
/// (a * b + c) mod L.
U256 sc_muladd(const U256& a, const U256& b, const U256& c);
/// a - b mod L (inputs < L).
U256 sc_sub(const U256& a, const U256& b);

}  // namespace probft::crypto::curve
