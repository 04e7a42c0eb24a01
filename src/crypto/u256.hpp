// Fixed-width 256/512-bit unsigned integer arithmetic.
//
// This is the arithmetic substrate for the from-scratch edwards25519
// implementation (field elements mod 2^255-19 and scalars mod the group
// order L). Representation is little-endian 64-bit limbs. Carry-chain
// primitives are inline because the field layer calls them on every
// operation; the field and scalar layers (curve25519.cpp) bring their own
// products and special-form reductions, and the generic bit-serial
// u512_mod here is kept as the simple reference they are tested against.
// Operations are NOT constant-time — this library is a research/simulation
// artifact, not a hardened crypto library (see docs/ARCHITECTURE.md).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace probft::crypto {

struct U256 {
  std::array<std::uint64_t, 4> w{};

  friend constexpr bool operator==(const U256&, const U256&) = default;
};

struct U512 {
  std::array<std::uint64_t, 8> w{};
};

/// out = a + b, returns the carry bit. `out` may alias an input.
inline std::uint64_t u256_add(U256& out, const U256& a, const U256& b) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(a.w[i]) + b.w[i] + carry;
    out.w[i] = static_cast<std::uint64_t>(sum);
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
  return carry;
}

/// out = a - b, returns the borrow bit. `out` may alias an input.
inline std::uint64_t u256_sub(U256& out, const U256& a, const U256& b) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 diff =
        static_cast<unsigned __int128>(a.w[i]) - b.w[i] - borrow;
    out.w[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>((diff >> 64) & 1);
  }
  return borrow;
}

/// Three-way comparison: -1, 0, or +1.
inline int u256_cmp(const U256& a, const U256& b) {
  for (std::size_t i = 4; i-- > 0;) {
    if (a.w[i] < b.w[i]) return -1;
    if (a.w[i] > b.w[i]) return 1;
  }
  return 0;
}

/// Full 256x256 -> 512-bit product (schoolbook with 128-bit accumulators).
inline U512 u256_mul(const U256& a, const U256& b) {
  U512 out{};
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.w[i]) * b.w[j] + out.w[i + j] +
          carry;
      out.w[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.w[i + 4] = carry;
  }
  return out;
}

/// x mod m, via binary long division (512 iterations: the reference
/// implementation; curve25519.cpp reduces mod L by Barrett instead).
/// Requires m != 0 and m < 2^255 so the running remainder can be shifted
/// without overflow.
U256 u512_mod(const U512& x, const U256& m);

/// (a * b) mod m. Requires m < 2^255.
U256 u256_mulmod(const U256& a, const U256& b, const U256& m);

/// (a + b) mod m. Requires a, b < m.
inline U256 u256_addmod(const U256& a, const U256& b, const U256& m) {
  U256 sum;
  if (u256_add(sum, a, b) != 0 || u256_cmp(sum, m) >= 0) {
    u256_sub(sum, sum, m);
  }
  return sum;
}

/// Little-endian byte conversions.
U256 u256_from_le(ByteSpan bytes32);
void u256_to_le(const U256& x, std::uint8_t out[32]);

/// Extracts bit `i` (0 = least significant).
inline int u256_bit(const U256& x, int i) {
  return static_cast<int>((x.w[static_cast<std::size_t>(i) / 64] >>
                           (static_cast<std::size_t>(i) % 64)) &
                          1U);
}

constexpr U256 u256_zero() { return U256{}; }
constexpr U256 u256_one() { return U256{{1, 0, 0, 0}}; }
inline bool u256_is_zero(const U256& x) {
  return (x.w[0] | x.w[1] | x.w[2] | x.w[3]) == 0;
}

}  // namespace probft::crypto
