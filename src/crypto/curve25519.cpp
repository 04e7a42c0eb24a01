#include "crypto/curve25519.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

#include "common/bytes.hpp"

namespace probft::crypto::curve {

namespace {

using u128 = unsigned __int128;

constexpr U256 kP{{0xffffffffffffffedULL, 0xffffffffffffffffULL,
                   0xffffffffffffffffULL, 0x7fffffffffffffffULL}};

constexpr U256 kL{{0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                   0x0000000000000000ULL, 0x1000000000000000ULL}};

/// floor(2^512 / L), the Barrett constant for reductions mod L.
constexpr std::uint64_t kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                                  0xffffffffffffffebULL, 0xffffffffffffffffULL,
                                  0x000000000000000fULL};

/// d = -121665/121666, 2d and sqrt(-1) = 2^((p-1)/4), all mod p.
constexpr Fe kD =
    fe_from_u256(U256{{0x75eb4dca135978a3ULL, 0x00700a4d4141d8abULL,
                       0x8cc740797779e898ULL, 0x52036cee2b6ffe73ULL}});
constexpr Fe kD2 =
    fe_from_u256(U256{{0xebd69b9426b2f159ULL, 0x00e0149a8283b156ULL,
                       0x198e80f2eef3d130ULL, 0x2406d9dc56dffce7ULL}});
constexpr Fe kSqrtM1 =
    fe_from_u256(U256{{0xc4ee1b274a0ea0b0ULL, 0x2f431806ad2fe478ULL,
                       0x2b4d00993dfbd7a7ULL, 0x2b8324804fc1df0bULL}});

/// The RFC 8032 base point (y = 4/5, x even) in extended coordinates.
constexpr Point kBase{
    fe_from_u256(U256{{0xc9562d608f25d51aULL, 0x692cc7609525a7b2ULL,
                       0xc0a4e231fdd6dc5cULL, 0x216936d3cd6e53feULL}}),
    fe_from_u256(U256{{0x6666666666666658ULL, 0x6666666666666666ULL,
                       0x6666666666666666ULL, 0x6666666666666666ULL}}),
    fe_one(),
    fe_from_u256(U256{{0x6dde8ab3a5b7dda3ULL, 0x20f09f80775152f5ULL,
                       0x66ea4e8e64abe37dULL, 0x67875f0fd78b7665ULL}})};

/// z^(2^250 - 1), and z^11 on the side: the common prefix of the inversion
/// and square-root addition chains.
Fe fe_pow_2_250_1(const Fe& z, Fe& z11) {
  auto sq_n = [](Fe a, int n) {
    for (int i = 0; i < n; ++i) a = fe_sq(a);
    return a;
  };
  const Fe z2 = fe_sq(z);
  const Fe z9 = fe_mul(sq_n(z2, 2), z);
  z11 = fe_mul(z9, z2);
  const Fe z_5 = fe_mul(fe_sq(z11), z9);  // z^(2^5 - 1)
  const Fe z_10 = fe_mul(sq_n(z_5, 5), z_5);
  const Fe z_20 = fe_mul(sq_n(z_10, 10), z_10);
  const Fe z_40 = fe_mul(sq_n(z_20, 20), z_20);
  const Fe z_50 = fe_mul(sq_n(z_40, 10), z_10);
  const Fe z_100 = fe_mul(sq_n(z_50, 50), z_50);
  const Fe z_200 = fe_mul(sq_n(z_100, 100), z_100);
  return fe_mul(sq_n(z_200, 50), z_50);  // z^(2^250 - 1)
}

/// z^((p-5)/8) = z^(2^252 - 3).
Fe fe_pow22523(const Fe& z) {
  Fe z11;
  const Fe t = fe_pow_2_250_1(z, z11);
  return fe_mul(fe_sq(fe_sq(t)), z);
}

// ---- Point representations used inside the scalar multiplications ----
//
// Completed: ((X : Z), (Y : T)), what an addition or doubling produces.
// Converting to extended costs 4 multiplies, to projective (T dropped) 3;
// a doubling never reads T, so a chain of doublings stays projective.
// CachedPoint (header) is an addend in (Y+X, Y-X, Z, 2dT) form; Niels is
// the affine (Z = 1) variant kept in the static base-point tables.

struct Completed {
  Fe X, Y, Z, T;
};

struct Niels {
  Fe YplusX, YminusX, T2d;
};

Point to_extended(const Completed& c) {
  return Point{fe_mul(c.X, c.T), fe_mul(c.Y, c.Z), fe_mul(c.Z, c.T),
               fe_mul(c.X, c.Y)};
}

Point to_projective(const Completed& c) {
  return Point{fe_mul(c.X, c.T), fe_mul(c.Y, c.Z), fe_mul(c.Z, c.T), {}};
}

CachedPoint to_cached(const Point& p) {
  return CachedPoint{fe_add(p.Y, p.X), fe_sub(p.Y, p.X), p.Z,
                     fe_mul(p.T, kD2)};
}

/// 2p, reading only X, Y, Z (4 squarings).
Completed dbl(const Point& p) {
  const Fe xx = fe_sq(p.X);
  const Fe yy = fe_sq(p.Y);
  const Fe zz = fe_sq(p.Z);
  const Fe aa = fe_sq(fe_add(p.X, p.Y));
  Completed r;
  r.Y = fe_add(yy, xx);
  r.Z = fe_sub(yy, xx);
  r.X = fe_sub(aa, r.Y);
  r.T = fe_sub(fe_add(zz, zz), r.Z);
  return r;
}

/// p + q, or p - q when `negate`; q is a CachedPoint or an affine Niels.
template <class Q>
Completed add(const Point& p, const Q& q, bool negate) {
  const Fe a = fe_mul(fe_add(p.Y, p.X), negate ? q.YminusX : q.YplusX);
  const Fe b = fe_mul(fe_sub(p.Y, p.X), negate ? q.YplusX : q.YminusX);
  const Fe c = fe_mul(q.T2d, p.T);
  Fe d;
  if constexpr (std::is_same_v<Q, CachedPoint>) {
    d = fe_mul(p.Z, q.Z);
  } else {
    d = p.Z;
  }
  d = fe_add(d, d);
  Completed r;
  r.X = fe_sub(a, b);
  r.Y = fe_add(a, b);
  r.Z = negate ? fe_sub(d, c) : fe_add(d, c);
  r.T = negate ? fe_add(d, c) : fe_sub(d, c);
  return r;
}

/// Signed-window (wNAF) digits of a 256-bit scalar, least significant
/// first: each nonzero digit is odd, below 2^(w-1) in magnitude, and at
/// least w positions from the next. The final carry of a full 256-bit
/// scalar can land as high as bit 255 + w.
struct Naf {
  std::array<std::int8_t, 264> digit{};
  int top = -1;  // highest nonzero position, -1 for a zero scalar
};

Naf naf(const U256& k, int w) {
  Naf out;
  const std::uint64_t limbs[6] = {k.w[0], k.w[1], k.w[2], k.w[3], 0, 0};
  const std::uint64_t width = std::uint64_t{1} << w;
  std::uint64_t carry = 0;
  for (int pos = 0; pos < 256 + w;) {
    const int idx = pos / 64;
    const int bit = pos % 64;
    std::uint64_t buf = limbs[idx] >> bit;
    if (bit > 64 - w) buf |= limbs[idx + 1] << (64 - bit);
    const std::uint64_t window = carry + (buf & (width - 1));
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      out.digit[static_cast<std::size_t>(pos)] =
          static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      out.digit[static_cast<std::size_t>(pos)] =
          static_cast<std::int8_t>(static_cast<int>(window) -
                                   static_cast<int>(width));
    }
    out.top = pos;
    pos += w;
  }
  return out;
}

/// Precomputed multiples of B, built once per process (37.5 KiB).
struct BaseTables {
  /// comb[i][j] = (j + 1) * 256^i * B: the fixed-base comb, one row per
  /// pair of radix-16 digits.
  std::array<std::array<Niels, 8>, 32> comb;
  /// odd[j] = (2j + 1) * B: B's width-8 wNAF table for Straus.
  std::array<Niels, 64> odd;
};

const BaseTables& base_tables() {
  static const BaseTables tables = [] {
    std::vector<Point> pts;
    pts.reserve(32 * 8 + 64);
    Point row = kBase;
    for (int i = 0; i < 32; ++i) {
      Point m = row;
      for (int j = 0; j < 8; ++j) {
        pts.push_back(m);
        m = point_add(m, row);
      }
      for (int d = 0; d < 8; ++d) row = point_double(row);
    }
    const Point b2 = point_double(kBase);
    Point m = kBase;
    for (int j = 0; j < 64; ++j) {
      pts.push_back(m);
      m = point_add(m, b2);
    }
    // Normalize to Z = 1 with one shared inversion (Montgomery's trick).
    std::vector<Fe> prefix(pts.size());
    Fe run = fe_one();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      prefix[i] = run;
      run = fe_mul(run, pts[i].Z);
    }
    Fe inv = fe_invert(run);
    std::vector<Niels> affine(pts.size());
    for (std::size_t i = pts.size(); i-- > 0;) {
      const Fe zinv = fe_mul(inv, prefix[i]);
      inv = fe_mul(inv, pts[i].Z);
      const Fe x = fe_mul(pts[i].X, zinv);
      const Fe y = fe_mul(pts[i].Y, zinv);
      affine[i] = Niels{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), kD2)};
    }
    BaseTables out;
    for (std::size_t i = 0; i < 32; ++i) {
      for (std::size_t j = 0; j < 8; ++j) out.comb[i][j] = affine[8 * i + j];
    }
    for (std::size_t j = 0; j < 64; ++j) out.odd[j] = affine[32 * 8 + j];
    return out;
  }();
  return tables;
}

/// x mod L for any x < 2^512: Barrett reduction (HAC 14.42, b = 2^64,
/// k = 4), at most two final subtractions.
U256 sc_barrett(const U512& x) {
  // q3 = floor(floor(x / b^3) * mu / b^5).
  std::uint64_t q2[10] = {};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 cur =
          static_cast<u128>(x.w[3 + i]) * kMu[j] + q2[i + j] + carry;
      q2[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    q2[i + 5] = carry;
  }
  const std::uint64_t* q3 = q2 + 5;
  // r = x - q3 * L, computed mod b^5; the true value is below 3L.
  std::uint64_t ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4 && i + j < 5; ++j) {
      const u128 cur = static_cast<u128>(q3[i]) * kL.w[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    if (i == 0) ql[4] += carry;
  }
  U256 r;
  std::uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 diff = static_cast<u128>(x.w[i]) - ql[i] - borrow;
    r.w[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>((diff >> 64) & 1);
  }
  while (u256_cmp(r, kL) >= 0) u256_sub(r, r, kL);
  return r;
}

U512 widen(const U256& x) {
  U512 out{};
  for (int i = 0; i < 4; ++i) out.w[i] = x.w[i];
  return out;
}

}  // namespace

const U256& field_prime() { return kP; }
const U256& group_order() { return kL; }

bool operator==(const Fe& a, const Fe& b) {
  return fe_to_u256(a) == fe_to_u256(b);
}

U256 fe_to_u256(const Fe& a) {
  // Below 2^52 per limb the value is under 2p; q = 1 iff it is >= p,
  // found by propagating the carry of value + 19 through the limbs.
  Fe t = detail::fe_carry(a);
  auto& l = t.v;
  std::uint64_t q = (l[0] + 19) >> 51;
  for (std::size_t i = 1; i < 5; ++i) q = (l[i] + q) >> 51;
  l[0] += 19 * q;  // value - q*p = value + 19q - q*2^255
  for (std::size_t i = 0; i < 4; ++i) {
    l[i + 1] += l[i] >> 51;
    l[i] &= detail::kMask51;
  }
  l[4] &= detail::kMask51;  // drops the q*2^255
  return U256{{l[0] | (l[1] << 51), (l[1] >> 13) | (l[2] << 38),
               (l[2] >> 26) | (l[3] << 25), (l[3] >> 39) | (l[4] << 12)}};
}

bool fe_is_zero(const Fe& a) { return u256_is_zero(fe_to_u256(a)); }

Fe fe_invert(const Fe& a) {
  Fe z11;
  Fe t = fe_pow_2_250_1(a, z11);
  for (int i = 0; i < 5; ++i) t = fe_sq(t);
  return fe_mul(t, z11);  // a^(2^255 - 21) = a^(p - 2)
}

const Fe& fe_sqrt_m1() { return kSqrtM1; }
const Fe& fe_d() { return kD; }

Point point_identity() {
  return Point{fe_zero(), fe_one(), fe_one(), fe_zero()};
}

const Point& point_base() { return kBase; }

Point point_add(const Point& p, const Point& q) {
  return to_extended(add(p, to_cached(q), false));
}

Point point_double(const Point& p) { return to_extended(dbl(p)); }

Point point_negate(const Point& p) {
  return Point{fe_neg(p.X), p.Y, p.Z, fe_neg(p.T)};
}

PointTable point_table(const Point& p) {
  PointTable table;
  table[0] = to_cached(p);
  const CachedPoint p2 = to_cached(point_double(p));
  Point m = p;
  for (std::size_t j = 1; j < table.size(); ++j) {
    m = to_extended(add(m, p2, false));
    table[j] = to_cached(m);
  }
  return table;
}

namespace {

/// One variable-base term of a Straus sum.
struct NafTerm {
  Naf naf;
  const PointTable* table;
};

/// Σ terms (+ base · B): one doubling per position from the highest
/// nonzero digit down, one addition per nonzero digit.
Point straus(const Naf& base, const NafTerm* terms, std::size_t count) {
  int top = base.top;
  for (std::size_t t = 0; t < count; ++t) top = std::max(top, terms[t].naf.top);
  if (top < 0) return point_identity();
  const auto& odd_b = base_tables().odd;
  Point acc = point_identity();
  for (int i = top; i >= 0; --i) {
    const auto pos = static_cast<std::size_t>(i);
    Completed c = dbl(acc);
    if (const int d = base.digit[pos]; d != 0) {
      c = add(to_extended(c), odd_b[static_cast<std::size_t>(std::abs(d) / 2)],
              d < 0);
    }
    for (std::size_t t = 0; t < count; ++t) {
      if (const int d = terms[t].naf.digit[pos]; d != 0) {
        c = add(to_extended(c),
                (*terms[t].table)[static_cast<std::size_t>(std::abs(d) / 2)],
                d < 0);
      }
    }
    acc = i == 0 ? to_extended(c) : to_projective(c);
  }
  return acc;
}

}  // namespace

Point point_scalar_mul(const U256& scalar, const PointTable& table) {
  const NafTerm term{naf(scalar, 5), &table};
  return straus(Naf{}, &term, 1);
}

Point point_scalar_mul(const U256& scalar, const Point& p) {
  return point_scalar_mul(scalar, point_table(p));
}

Point point_base_mul(const U256& scalar) {
  const U256 k = sc_barrett(widen(scalar));
  // 64 signed radix-16 digits e_i in [-8, 8], k = Σ e_i 16^i; then
  // kB = 16 Σ e_{2j+1} 256^j B + Σ e_{2j} 256^j B, both sums by the comb.
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    const auto byte = static_cast<std::uint8_t>(k.w[i / 8] >> (8 * (i % 8)));
    e[2 * i] = static_cast<std::int8_t>(byte & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(byte >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = (e[i] + 8) >> 4;
    e[i] = static_cast<std::int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  const auto& comb = base_tables().comb;
  Point h = point_identity();
  auto add_digits = [&](int first) {
    for (int i = first; i < 64; i += 2) {
      if (e[i] == 0) continue;
      const auto& entry = comb[static_cast<std::size_t>(i / 2)]
                              [static_cast<std::size_t>(std::abs(e[i]) - 1)];
      h = to_extended(add(h, entry, e[i] < 0));
    }
  };
  add_digits(1);
  for (int i = 0; i < 3; ++i) h = to_projective(dbl(h));
  h = to_extended(dbl(h));
  add_digits(0);
  return h;
}

Point point_multi_scalar_mul(const U256& base_scalar,
                             const std::vector<ScalarPoint>& terms) {
  std::vector<PointTable> tables;
  tables.reserve(terms.size());
  std::vector<NafTerm> nafs;
  nafs.reserve(terms.size());
  for (const auto& t : terms) {
    tables.push_back(point_table(t.point));
    nafs.push_back(NafTerm{naf(t.scalar, 5), &tables.back()});
  }
  return straus(naf(base_scalar, 8), nafs.data(), nafs.size());
}

Point point_mul_cofactor(const Point& p) {
  return to_extended(dbl(to_projective(dbl(to_projective(dbl(p))))));
}

bool point_eq(const Point& p, const Point& q) {
  return fe_mul(p.X, q.Z) == fe_mul(q.X, p.Z) &&
         fe_mul(p.Y, q.Z) == fe_mul(q.Y, p.Z);
}

bool point_is_identity(const Point& p) {
  return fe_is_zero(p.X) && p.Y == p.Z;
}

void point_compress(const Point& p, std::uint8_t out[32]) {
  const Fe zinv = fe_invert(p.Z);
  const U256 x = fe_to_u256(fe_mul(p.X, zinv));
  u256_to_le(fe_to_u256(fe_mul(p.Y, zinv)), out);
  out[31] = static_cast<std::uint8_t>(out[31] |
                                      (static_cast<std::uint8_t>(x.w[0] & 1)
                                       << 7));
}

Bytes point_compress(const Point& p) {
  Bytes out(32);
  point_compress(p, out.data());
  return out;
}

std::optional<Point> point_decompress(ByteSpan bytes32) {
  if (bytes32.size() != 32) return std::nullopt;
  std::uint8_t buf[32];
  for (int i = 0; i < 32; ++i) buf[i] = bytes32[static_cast<std::size_t>(i)];
  const int sign = buf[31] >> 7;
  buf[31] &= 0x7f;
  const U256 y_int = u256_from_le(ByteSpan(buf, 32));
  if (u256_cmp(y_int, kP) >= 0) return std::nullopt;  // non-canonical
  // x^2 = u/v with u = y^2 - 1, v = dy^2 + 1; candidate root
  // x = (u/v)^((p+3)/8) = u v^3 (u v^7)^((p-5)/8), fixed up by sqrt(-1).
  const Fe y = fe_from_u256(y_int);
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(kD, y2), fe_one());
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));
  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (vx2 != u) {
    if (vx2 != fe_neg(u)) return std::nullopt;  // u/v is not a square
    x = fe_mul(x, kSqrtM1);
  }
  const U256 x_int = fe_to_u256(x);
  if (u256_is_zero(x_int) && sign == 1) return std::nullopt;  // -0
  if (static_cast<int>(x_int.w[0] & 1) != sign) x = fe_neg(x);
  return Point{x, y, fe_one(), fe_mul(x, y)};
}

U256 sc_reduce_wide(ByteSpan bytes64) {
  if (bytes64.size() != 64) {
    throw std::invalid_argument("sc_reduce_wide: need exactly 64 bytes");
  }
  U512 x{};
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    for (int j = 7; j >= 0; --j) {
      v = (v << 8) | bytes64[static_cast<std::size_t>(8 * i + j)];
    }
    x.w[i] = v;
  }
  return sc_barrett(x);
}

U256 sc_reduce(ByteSpan bytes32) {
  return sc_barrett(widen(u256_from_le(bytes32)));
}

U256 sc_mul(const U256& a, const U256& b) { return sc_barrett(u256_mul(a, b)); }

U256 sc_add(const U256& a, const U256& b) { return u256_addmod(a, b, kL); }

U256 sc_muladd(const U256& a, const U256& b, const U256& c) {
  return sc_add(sc_mul(a, b), c);
}

U256 sc_sub(const U256& a, const U256& b) {
  U256 out;
  if (u256_sub(out, a, b) != 0) u256_add(out, out, kL);
  return out;
}

}  // namespace probft::crypto::curve
