#include "crypto/curve25519.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "crypto/u256.hpp"

namespace probft::crypto::curve {
namespace {

U256 from_u64(std::uint64_t v) {
  U256 out{};
  out.w[0] = v;
  return out;
}

Fe fe_u64(std::uint64_t v) { return fe_from_u256(from_u64(v)); }

TEST(U256, AddSubRoundtrip) {
  const U256 a{{0xffffffffffffffffULL, 1, 2, 3}};
  const U256 b{{5, 6, 7, 8}};
  U256 sum, diff;
  u256_add(sum, a, b);
  u256_sub(diff, sum, b);
  EXPECT_EQ(diff, a);
}

TEST(U256, AddCarryPropagates) {
  const U256 a{{~0ULL, ~0ULL, ~0ULL, ~0ULL}};
  U256 sum;
  const auto carry = u256_add(sum, a, u256_one());
  EXPECT_EQ(carry, 1ULL);
  EXPECT_TRUE(u256_is_zero(sum));
}

TEST(U256, SubBorrow) {
  U256 out;
  EXPECT_EQ(u256_sub(out, u256_zero(), u256_one()), 1ULL);
  EXPECT_EQ(out.w[0], ~0ULL);
}

TEST(U256, CompareOrdering) {
  const U256 small{{1, 0, 0, 0}};
  const U256 big{{0, 0, 0, 1}};
  EXPECT_LT(u256_cmp(small, big), 0);
  EXPECT_GT(u256_cmp(big, small), 0);
  EXPECT_EQ(u256_cmp(big, big), 0);
}

TEST(U256, MulMatchesSmallProducts) {
  const auto prod = u256_mul(from_u64(1000000007ULL), from_u64(998244353ULL));
  EXPECT_EQ(prod.w[0], 1000000007ULL * 998244353ULL);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(prod.w[i], 0ULL);
}

TEST(U256, ModSmallValues) {
  U512 x{};
  x.w[0] = 100;
  EXPECT_EQ(u512_mod(x, from_u64(7)).w[0], 2ULL);
}

TEST(U256, MulModAgainstKnownValue) {
  // (2^64 - 1)^2 mod 1000000007 computed independently:
  // 2^64 mod p = 582344008, so (2^64-1)^2 mod p = (582344008-1)^2 mod p.
  const std::uint64_t p = 1000000007ULL;
  const U256 a = from_u64(~0ULL);
  const auto r = u256_mulmod(a, a, from_u64(p));
  const unsigned __int128 expected =
      static_cast<unsigned __int128>(582344008ULL - 1) * (582344008ULL - 1) %
      p;
  EXPECT_EQ(r.w[0], static_cast<std::uint64_t>(expected));
}

TEST(U256, ByteRoundtrip) {
  Bytes b(32);
  for (int i = 0; i < 32; ++i) b[i] = static_cast<std::uint8_t>(i * 7 + 1);
  const U256 x = u256_from_le(ByteSpan(b.data(), 32));
  std::uint8_t out[32];
  u256_to_le(x, out);
  EXPECT_EQ(Bytes(out, out + 32), b);
}

TEST(Field, AddSubInverse) {
  const Fe a = fe_mul(fe_u64(12345), fe_u64(67890));
  const Fe b = fe_mul(fe_u64(555), fe_u64(777));
  EXPECT_EQ(fe_sub(fe_add(a, b), b), a);
}

TEST(Field, NegSumsToZero) {
  const Fe a = fe_u64(42);
  EXPECT_TRUE(fe_is_zero(fe_add(a, fe_neg(a))));
}

TEST(Field, MulCommutesAndDistributes) {
  const Fe a = fe_mul(fe_u64(0xdeadbeef), fe_u64(0x12345678));
  const Fe b = fe_u64(0xcafebabe);
  const Fe c = fe_u64(0x87654321);
  EXPECT_EQ(fe_mul(a, b), fe_mul(b, a));
  EXPECT_EQ(fe_mul(a, fe_add(b, c)), fe_add(fe_mul(a, b), fe_mul(a, c)));
}

TEST(Field, InvertIsMultiplicativeInverse) {
  const Fe a = fe_mul(fe_u64(987654321), fe_u64(123456789));
  EXPECT_EQ(fe_mul(a, fe_invert(a)), fe_one());
}

TEST(Field, SqrtM1Squared) {
  // (sqrt(-1))^2 == p - 1.
  const Fe m1 = fe_neg(fe_one());
  EXPECT_EQ(fe_sq(fe_sqrt_m1()), m1);
}

TEST(Field, FoldHandlesMaxProduct) {
  // (p-1)^2 mod p == 1.
  const Fe p_minus_1 = fe_neg(fe_one());
  EXPECT_EQ(fe_sq(p_minus_1), fe_one());
}

TEST(Point, BasePointOnCurve) {
  // -x^2 + y^2 = 1 + d*x^2*y^2 for affine base point.
  const Point& b = point_base();
  EXPECT_EQ(b.Z, fe_one());
  const Fe x2 = fe_sq(b.X);
  const Fe y2 = fe_sq(b.Y);
  const Fe lhs = fe_sub(y2, x2);
  const Fe rhs = fe_add(fe_one(), fe_mul(fe_d(), fe_mul(x2, y2)));
  EXPECT_EQ(lhs, rhs);
}

TEST(Point, CompressDecompressBase) {
  const Bytes compressed = point_compress(point_base());
  EXPECT_EQ(to_hex(compressed),
            "5866666666666666666666666666666666666666666666666666666666666666");
  const auto decompressed = point_decompress(compressed);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_TRUE(point_eq(*decompressed, point_base()));
}

TEST(Point, IdentityProperties) {
  const Point id = point_identity();
  EXPECT_TRUE(point_is_identity(id));
  EXPECT_TRUE(point_eq(point_add(id, point_base()), point_base()));
  EXPECT_TRUE(point_eq(point_add(point_base(), id), point_base()));
}

TEST(Point, DoubleMatchesAdd) {
  const Point& b = point_base();
  EXPECT_TRUE(point_eq(point_double(b), point_add(b, b)));
}

TEST(Point, AdditionAssociates) {
  const Point b2 = point_double(point_base());
  const Point b3 = point_add(b2, point_base());
  const Point lhs = point_add(b3, b2);             // (3B) + 2B
  const Point rhs = point_add(point_add(b2, b2), point_base());  // 4B + B
  EXPECT_TRUE(point_eq(lhs, rhs));
}

TEST(Point, NegateCancels) {
  const Point& b = point_base();
  EXPECT_TRUE(point_is_identity(point_add(b, point_negate(b))));
}

TEST(Point, ScalarMulMatchesRepeatedAdd) {
  const U256 five = from_u64(5);
  Point acc = point_identity();
  for (int i = 0; i < 5; ++i) acc = point_add(acc, point_base());
  EXPECT_TRUE(point_eq(point_scalar_mul(five, point_base()), acc));
}

TEST(Point, ScalarMulDistributes) {
  // (a+b)*P == a*P + b*P for small a, b.
  const U256 a = from_u64(123);
  const U256 b = from_u64(456);
  const U256 ab = from_u64(579);
  const Point lhs = point_scalar_mul(ab, point_base());
  const Point rhs = point_add(point_scalar_mul(a, point_base()),
                              point_scalar_mul(b, point_base()));
  EXPECT_TRUE(point_eq(lhs, rhs));
}

TEST(Point, OrderLTimesBaseIsIdentity) {
  EXPECT_TRUE(
      point_is_identity(point_scalar_mul(group_order(), point_base())));
}

TEST(Point, CofactorMulIsThreeDoublings) {
  const Point b8 = point_mul_cofactor(point_base());
  EXPECT_TRUE(point_eq(b8, point_scalar_mul(from_u64(8), point_base())));
}

TEST(Point, DecompressRejectsNonCanonicalY) {
  // y >= p is non-canonical.
  Bytes bad(32, 0xff);
  bad[31] = 0x7f;  // y = p + something
  EXPECT_FALSE(point_decompress(bad).has_value());
}

TEST(Point, DecompressRejectsNonResidue) {
  // Hunt for an encoding that fails: y = 2 gives x^2 = (y^2-1)/(dy^2+1);
  // scan a few small y values — at least one must be rejected because only
  // about half of field elements are squares.
  int rejected = 0;
  for (std::uint8_t y = 2; y < 40; ++y) {
    Bytes enc(32, 0);
    enc[0] = y;
    if (!point_decompress(enc).has_value()) ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

TEST(Scalar, ReduceWideMatchesMod) {
  Bytes wide(64, 0);
  wide[0] = 1;  // value 1
  EXPECT_EQ(sc_reduce_wide(wide), u256_one());
}

TEST(Scalar, AddWrapsAtL) {
  const U256& l = group_order();
  U256 l_minus_1;
  u256_sub(l_minus_1, l, u256_one());
  EXPECT_TRUE(u256_is_zero(sc_add(l_minus_1, u256_one())));
}

TEST(Scalar, MulAddConsistency) {
  const U256 a = from_u64(1234567);
  const U256 b = from_u64(7654321);
  const U256 c = from_u64(999);
  EXPECT_EQ(sc_muladd(a, b, c), sc_add(sc_mul(a, b), c));
}

TEST(Scalar, SubIsAddInverse) {
  const U256 a = from_u64(100);
  const U256 b = from_u64(300);
  EXPECT_EQ(sc_add(sc_sub(a, b), b), a);
}

}  // namespace
}  // namespace probft::crypto::curve
