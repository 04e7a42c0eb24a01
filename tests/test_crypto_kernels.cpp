// Differential tests for the edwards25519 kernels. The naive reference
// implementations live here: a 256-step double-and-add ladder, square-and-
// multiply exponentiation, division-then-square-root decompression and
// bit-serial reduction (u512_mod, u256_mulmod). The fixed-base comb, the
// wNAF and Straus paths, the addition chains, the lazily reduced 5x51-bit
// field and the Barrett reduction mod L must agree with them on seeded
// random inputs and on edge values, including points that carry a torsion
// component, where a scalar must NOT be reduced mod L.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/curve25519.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace probft::crypto::curve {
namespace {

// ---- reference implementations ----

Point ladder(const U256& k, const Point& p) {
  Point acc = point_identity();
  for (int i = 255; i >= 0; --i) {
    acc = point_double(acc);
    if (u256_bit(k, i)) acc = point_add(acc, p);
  }
  return acc;
}

Fe fe_pow_ref(const Fe& base, const U256& exponent) {
  Fe result = fe_one();
  Fe acc = base;
  for (int i = 0; i < 256; ++i) {
    if (u256_bit(exponent, i)) result = fe_mul(result, acc);
    acc = fe_mul(acc, acc);
  }
  return result;
}

U256 minus(const U256& a, std::uint64_t b) {
  U256 out;
  u256_sub(out, a, U256{{b, 0, 0, 0}});
  return out;
}

U256 plus(const U256& a, std::uint64_t b) {
  U256 out;
  u256_add(out, a, U256{{b, 0, 0, 0}});
  return out;
}

/// Decompression as x = (u * v^-1)^((p+3)/8), fixed up by sqrt(-1).
std::optional<Point> decompress_ref(ByteSpan enc) {
  std::uint8_t buf[32];
  for (int i = 0; i < 32; ++i) buf[i] = enc[static_cast<std::size_t>(i)];
  const int sign = buf[31] >> 7;
  buf[31] &= 0x7f;
  const U256 y_int = u256_from_le(ByteSpan(buf, 32));
  if (u256_cmp(y_int, field_prime()) >= 0) return std::nullopt;
  const Fe y = fe_from_u256(y_int);
  const Fe y2 = fe_mul(y, y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(fe_d(), y2), fe_one());
  const Fe x2 = fe_mul(u, fe_pow_ref(v, minus(field_prime(), 2)));
  // (p + 3) / 8
  U256 e = plus(field_prime(), 3);
  for (int i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      e.w[j] = (e.w[j] >> 1) | (j < 3 ? e.w[j + 1] << 63 : 0);
    }
  }
  Fe x = fe_pow_ref(x2, e);
  if (fe_mul(x, x) != x2) x = fe_mul(x, fe_sqrt_m1());
  if (fe_mul(x, x) != x2) return std::nullopt;
  const U256 x_int = fe_to_u256(x);
  if (u256_is_zero(x_int) && sign == 1) return std::nullopt;
  if (static_cast<int>(x_int.w[0] & 1) != sign) x = fe_neg(x);
  return Point{x, y, fe_one(), fe_mul(x, y)};
}

// ---- inputs ----

U256 random_u256(const std::string& label, int i) {
  const Bytes h = sha256(to_bytes(label + std::to_string(i)));
  return u256_from_le(h);
}

U256 pow2(int bit) {
  U256 out{};
  out.w[static_cast<std::size_t>(bit / 64)] = std::uint64_t{1} << (bit % 64);
  return out;
}

U256 clamped(int i) {
  const auto h = Sha512::hash(to_bytes("clamp-" + std::to_string(i)));
  std::uint8_t a[32];
  for (int j = 0; j < 32; ++j) a[j] = h[static_cast<std::size_t>(j)];
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
  return u256_from_le(ByteSpan(a, 32));
}

std::vector<U256> edge_scalars() {
  const U256& l = group_order();
  std::vector<U256> out = {u256_zero(), u256_one(), minus(l, 1), l,
                           plus(l, 1),  pow2(252),  minus(pow2(255), 1),
                           U256{{~0ULL, ~0ULL, ~0ULL, ~0ULL}}};
  for (int i = 0; i < 4; ++i) {
    const U256 c = clamped(i);
    EXPECT_GE(u256_cmp(c, l), 0);  // clamped scalars are >= L
    out.push_back(c);
  }
  for (int i = 0; i < 4; ++i) {
    U256 c = random_u256("challenge-", i);  // 128-bit VRF challenge
    c.w[2] = c.w[3] = 0;
    out.push_back(c);
  }
  for (int i = 0; i < 8; ++i) out.push_back(random_u256("scalar-", i));
  return out;
}

/// Points with a torsion component: decompressed hash outputs, cofactor
/// not cleared.
std::vector<Point> torsion_points() {
  std::vector<Point> out;
  for (int i = 0; out.size() < 4; ++i) {
    const Bytes enc = sha256(to_bytes("torsion-" + std::to_string(i)));
    const auto p = point_decompress(enc);
    if (!p) continue;
    if (point_is_identity(ladder(group_order(), *p))) continue;
    out.push_back(*p);
  }
  // A pure small-order point, and the identity.
  out.push_back(*point_decompress(from_hex(
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a")));
  out.push_back(point_identity());
  return out;
}

std::vector<Point> test_points() {
  std::vector<Point> out = torsion_points();
  out.push_back(point_base());
  out.push_back(ladder(random_u256("prime-order-", 0), point_base()));
  return out;
}

// ---- tests ----

TEST(CurveKernels, TorsionPointsNeedUnreducedScalars) {
  // The pitfall these tests pin: for a point with a torsion component,
  // (k mod L) * P differs from k * P, so only B's multiplications may
  // reduce the scalar.
  const Point p = torsion_points()[0];
  const U256 l_plus_1 = plus(group_order(), 1);
  EXPECT_FALSE(point_eq(ladder(l_plus_1, p), p));
  EXPECT_TRUE(point_eq(point_scalar_mul(l_plus_1, p), ladder(l_plus_1, p)));
  EXPECT_TRUE(point_eq(point_base_mul(l_plus_1), point_base()));
}

TEST(CurveKernels, BaseMulMatchesLadder) {
  for (const U256& k : edge_scalars()) {
    EXPECT_TRUE(point_eq(point_base_mul(k), ladder(k, point_base())));
  }
  for (int i = 0; i < 16; ++i) {
    const U256 k = random_u256("base-", i);
    EXPECT_TRUE(point_eq(point_base_mul(k), ladder(k, point_base()))) << i;
  }
}

TEST(CurveKernels, VariableBaseMulMatchesLadder) {
  const std::vector<Point> points = test_points();
  for (const Point& p : points) {
    const PointTable table = point_table(p);
    for (const U256& k : edge_scalars()) {
      const Point want = ladder(k, p);
      EXPECT_TRUE(point_eq(point_scalar_mul(k, p), want));
      EXPECT_TRUE(point_eq(point_scalar_mul(k, table), want));
    }
  }
}

TEST(CurveKernels, StrausMatchesSumOfLadders) {
  const std::vector<Point> points = test_points();
  const std::vector<U256> scalars = edge_scalars();
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const U256& a = scalars[i];
    const U256& b = scalars[(i + 3) % scalars.size()];
    const U256& c = scalars[(i + 7) % scalars.size()];
    const Point& p = points[i % points.size()];
    const Point& q = points[(i + 1) % points.size()];
    const Point want = point_add(
        ladder(a, point_base()), point_add(ladder(b, p), ladder(c, q)));
    EXPECT_TRUE(point_eq(point_multi_scalar_mul(a, {{b, p}, {c, q}}), want))
        << i;
    EXPECT_TRUE(point_eq(point_multi_scalar_mul(a, {}),
                         ladder(a, point_base())))
        << i;
    EXPECT_TRUE(point_eq(point_multi_scalar_mul(u256_zero(), {{b, p}}),
                         ladder(b, p)))
        << i;
  }
}

TEST(CurveKernels, CofactorAndDoublingMatchLadder) {
  for (const Point& p : test_points()) {
    EXPECT_TRUE(point_eq(point_mul_cofactor(p), ladder(U256{{8, 0, 0, 0}}, p)));
    EXPECT_TRUE(point_eq(point_double(p), point_add(p, p)));
  }
}

TEST(CurveKernels, InvertMatchesSquareAndMultiply) {
  const U256 p_minus_2 = minus(field_prime(), 2);
  for (int i = 0; i < 16; ++i) {
    const Fe a = fe_from_u256(random_u256("invert-", i));
    EXPECT_EQ(fe_invert(a), fe_pow_ref(a, p_minus_2)) << i;
    EXPECT_EQ(fe_mul(a, fe_invert(a)), fe_one()) << i;
  }
  EXPECT_EQ(fe_invert(fe_one()), fe_one());
  EXPECT_EQ(fe_invert(fe_neg(fe_one())), fe_neg(fe_one()));
}

TEST(CurveKernels, DecompressMatchesReference) {
  int accepted = 0;
  for (int i = 0; i < 64; ++i) {
    Bytes enc = sha256(to_bytes("decompress-" + std::to_string(i)));
    if (i % 8 == 0) enc[31] |= 0x80;
    const auto got = point_decompress(enc);
    const auto want = decompress_ref(enc);
    ASSERT_EQ(got.has_value(), want.has_value()) << i;
    if (got) {
      ++accepted;
      EXPECT_EQ(got->X, want->X) << i;
      EXPECT_EQ(got->Y, want->Y) << i;
    }
  }
  EXPECT_GT(accepted, 16);
}

U256 mod_p(const U256& x) {
  return u512_mod(U512{{x.w[0], x.w[1], x.w[2], x.w[3]}}, field_prime());
}

/// -x mod p for x < p.
U256 neg_mod_p(const U256& x) {
  if (u256_is_zero(x)) return x;
  U256 d;
  u256_sub(d, field_prime(), x);
  return d;
}

TEST(CurveKernels, FieldConversionsAreCanonical) {
  const U256& p = field_prime();
  const std::vector<U256> edges = {
      u256_zero(), u256_one(), minus(p, 1), p, plus(p, 1), plus(p, 18),
      plus(p, 19), minus(pow2(255), 1), pow2(255),
      U256{{~0ULL, ~0ULL, ~0ULL, ~0ULL}}};
  for (const U256& x : edges) {
    EXPECT_EQ(fe_to_u256(fe_from_u256(x)), mod_p(x));
  }
  EXPECT_EQ(fe_from_u256(p), fe_zero());
  EXPECT_TRUE(fe_is_zero(fe_from_u256(p)));
  EXPECT_EQ(fe_from_u256(plus(p, 1)), fe_one());
  // Limbs at the lazy bound (2^52 - 1 each) still read back as
  // Σ limb_i 2^(51 i) mod p.
  const Fe top{{(1ULL << 52) - 1, (1ULL << 52) - 1, (1ULL << 52) - 1,
                (1ULL << 52) - 1, (1ULL << 52) - 1}};
  U256 want{};
  U256 scale = u256_one();
  for (const std::uint64_t limb : top.v) {
    want = u256_addmod(want, u256_mulmod(U256{{limb, 0, 0, 0}}, scale, p), p);
    scale = u256_mulmod(scale, pow2(51), p);
  }
  EXPECT_EQ(fe_to_u256(top), want);
  EXPECT_EQ(fe_to_u256(fe_mul(top, top)), u256_mulmod(want, want, p));
  EXPECT_EQ(fe_to_u256(fe_sq(top)), u256_mulmod(want, want, p));
  EXPECT_EQ(fe_to_u256(fe_neg(top)), neg_mod_p(want));
}

TEST(CurveKernels, FieldOpsMatchGenericReduction) {
  // A random walk of adds, subtractions, negations, products and squares
  // on lazily reduced values, mirrored on canonical U256 values with the
  // generic modular routines.
  const U256& p = field_prime();
  Fe a = fe_from_u256(random_u256("walk-a-", 0));
  U256 ra = mod_p(random_u256("walk-a-", 0));
  for (int i = 0; i < 400; ++i) {
    const U256 b_int = random_u256("walk-b-", i);
    const Fe b = fe_from_u256(b_int);
    const U256 rb = mod_p(b_int);
    switch (i % 5) {
      case 0:
        a = fe_add(a, b);
        ra = u256_addmod(ra, rb, p);
        break;
      case 1: {
        a = fe_sub(a, b);
        U256 d;
        if (u256_sub(d, ra, rb) != 0) u256_add(d, d, p);
        ra = d;
        break;
      }
      case 2:
        a = fe_mul(a, b);
        ra = u256_mulmod(ra, rb, p);
        break;
      case 3:
        a = fe_sq(fe_add(a, a));
        ra = u256_addmod(ra, ra, p);
        ra = u256_mulmod(ra, ra, p);
        break;
      default:
        a = fe_neg(a);
        ra = neg_mod_p(ra);
        break;
    }
    ASSERT_EQ(fe_to_u256(a), ra) << i;
    for (const std::uint64_t limb : a.v) ASSERT_LT(limb, 1ULL << 52) << i;
  }
  const Fe max = fe_neg(fe_one());
  EXPECT_EQ(fe_sq(max), fe_one());
  EXPECT_EQ(fe_mul(max, fe_one()), max);
}

TEST(CurveKernels, ScalarReductionMatchesBitSerial) {
  const U256& l = group_order();
  for (int i = 0; i < 64; ++i) {
    const auto wide = Sha512::hash(to_bytes("wide-" + std::to_string(i)));
    U512 x{};
    for (std::size_t j = 0; j < 64; ++j) {
      x.w[j / 8] |= static_cast<std::uint64_t>(wide[j]) << (8 * (j % 8));
    }
    EXPECT_EQ(sc_reduce_wide(ByteSpan(wide.data(), wide.size())),
              u512_mod(x, l))
        << i;
    const U256 a = random_u256("sc-a-", i);
    const U256 b = random_u256("sc-b-", i);
    EXPECT_EQ(sc_mul(a, b), u256_mulmod(a, b, l)) << i;
    std::uint8_t enc[32];
    u256_to_le(a, enc);
    EXPECT_EQ(sc_reduce(ByteSpan(enc, 32)), u512_mod(U512{{a.w[0], a.w[1],
                                                           a.w[2], a.w[3]}},
                                                      l))
        << i;
  }
  // Extremes: all-ones 512-bit input, L itself, L - 1, 2L, multiples of 2^252.
  const Bytes ones(64, 0xff);
  EXPECT_EQ(sc_reduce_wide(ones),
            u512_mod(U512{{~0ULL, ~0ULL, ~0ULL, ~0ULL, ~0ULL, ~0ULL, ~0ULL,
                           ~0ULL}},
                     l));
  for (const U256& k : edge_scalars()) {
    std::uint8_t enc[32];
    u256_to_le(k, enc);
    EXPECT_EQ(sc_reduce(ByteSpan(enc, 32)),
              u512_mod(U512{{k.w[0], k.w[1], k.w[2], k.w[3]}}, l));
    EXPECT_EQ(sc_mul(k, k), u256_mulmod(k, k, l));
  }
}

}  // namespace
}  // namespace probft::crypto::curve
