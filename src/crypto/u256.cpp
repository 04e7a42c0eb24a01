#include "crypto/u256.hpp"

#include <stdexcept>

namespace probft::crypto {

U256 u512_mod(const U512& x, const U256& m) {
  if (u256_is_zero(m)) throw std::invalid_argument("u512_mod: zero modulus");
  if (m.w[3] >> 63) {
    throw std::invalid_argument("u512_mod: modulus must be < 2^255");
  }
  U256 r{};
  for (int i = 511; i >= 0; --i) {
    // r = (r << 1) | bit_i(x); r stays < 2m < 2^256.
    std::uint64_t top = 0;
    for (int j = 0; j < 4; ++j) {
      const std::uint64_t next_top = r.w[j] >> 63;
      r.w[j] = (r.w[j] << 1) | top;
      top = next_top;
    }
    const int bit = static_cast<int>(
        (x.w[static_cast<std::size_t>(i) / 64] >>
         (static_cast<std::size_t>(i) % 64)) &
        1U);
    r.w[0] |= static_cast<std::uint64_t>(bit);
    if (u256_cmp(r, m) >= 0) {
      U256 tmp;
      u256_sub(tmp, r, m);
      r = tmp;
    }
  }
  return r;
}

U256 u256_mulmod(const U256& a, const U256& b, const U256& m) {
  return u512_mod(u256_mul(a, b), m);
}

U256 u256_from_le(ByteSpan bytes32) {
  if (bytes32.size() != 32) {
    throw std::invalid_argument("u256_from_le: need exactly 32 bytes");
  }
  U256 out{};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    for (int j = 7; j >= 0; --j) {
      v = (v << 8) | bytes32[static_cast<std::size_t>(8 * i + j)];
    }
    out.w[i] = v;
  }
  return out;
}

void u256_to_le(const U256& x, std::uint8_t out[32]) {
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<std::uint8_t>(x.w[i] >> (8 * j));
    }
  }
}

}  // namespace probft::crypto
