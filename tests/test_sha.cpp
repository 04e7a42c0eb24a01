#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace probft::crypto {
namespace {

Bytes digest_bytes(const Sha256::Digest& d) { return Bytes(d.begin(), d.end()); }
Bytes digest_bytes(const Sha512::Digest& d) { return Bytes(d.begin(), d.end()); }

// FIPS 180-4 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(Bytes{}))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(to_bytes("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Bytes msg(1000000, 'a');
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(msg))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(ByteSpan(msg.data(), split));
    h.update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finalize(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding around the 55/56/64-byte block boundaries.
  for (std::size_t len : {55U, 56U, 57U, 63U, 64U, 65U, 119U, 120U, 128U}) {
    Bytes msg(len, 'x');
    Sha256 incremental;
    for (std::size_t i = 0; i < len; ++i) {
      incremental.update(ByteSpan(&msg[i], 1));
    }
    EXPECT_EQ(incremental.finalize(), Sha256::hash(msg)) << "len=" << len;
  }
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(to_hex(digest_bytes(Sha512::hash(Bytes{}))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(to_hex(digest_bytes(Sha512::hash(to_bytes("abc")))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(digest_bytes(Sha512::hash(to_bytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  const Bytes msg(300, 0x5a);
  Sha512 h;
  h.update(ByteSpan(msg.data(), 100));
  h.update(ByteSpan(msg.data() + 100, 200));
  EXPECT_EQ(h.finalize(), Sha512::hash(msg));
}

TEST(Sha512, BoundaryLengths) {
  for (std::size_t len : {111U, 112U, 113U, 127U, 128U, 129U, 255U, 256U}) {
    Bytes msg(len, 'y');
    Sha512 incremental;
    for (std::size_t i = 0; i < len; ++i) {
      incremental.update(ByteSpan(&msg[i], 1));
    }
    EXPECT_EQ(incremental.finalize(), Sha512::hash(msg)) << "len=" << len;
  }
}

}  // namespace
}  // namespace probft::crypto
