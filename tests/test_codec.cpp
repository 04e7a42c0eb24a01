#include "common/codec.hpp"

#include <gtest/gtest.h>

namespace probft {
namespace {

TEST(Codec, IntegersRoundtrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);

  Reader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefU);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  const Bytes expected = {0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(w.data(), expected);
}

TEST(Codec, BytesRoundtrip) {
  Writer w;
  const Bytes payload = {9, 8, 7};
  w.bytes(payload);
  Reader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, StringRoundtrip) {
  Writer w;
  w.str("prepare");
  Reader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_EQ(r.str(), "prepare");
}

TEST(Codec, VectorRoundtrip) {
  Writer w;
  const std::vector<std::uint32_t> items = {1, 5, 9};
  w.vec(items, [](Writer& out, std::uint32_t v) { out.u32(v); });
  Reader r(ByteSpan(w.data().data(), w.data().size()));
  const auto decoded =
      r.vec<std::uint32_t>([](Reader& in) { return in.u32(); });
  EXPECT_EQ(decoded, items);
}

TEST(Codec, OptionalRoundtrip) {
  Writer w;
  w.opt(std::optional<std::uint32_t>(42),
        [](Writer& out, std::uint32_t v) { out.u32(v); });
  w.opt(std::optional<std::uint32_t>(),
        [](Writer& out, std::uint32_t v) { out.u32(v); });
  Reader r(ByteSpan(w.data().data(), w.data().size()));
  const auto present = r.opt<std::uint32_t>([](Reader& in) { return in.u32(); });
  const auto absent = r.opt<std::uint32_t>([](Reader& in) { return in.u32(); });
  ASSERT_TRUE(present.has_value());
  EXPECT_EQ(*present, 42U);
  EXPECT_FALSE(absent.has_value());
}

TEST(Codec, TruncatedBufferThrows) {
  Writer w;
  w.u32(7);
  Reader r(ByteSpan(w.data().data(), 3));
  EXPECT_THROW((void)r.u32(), CodecError);
}

TEST(Codec, TruncatedBytesThrows) {
  const std::uint8_t raw[] = {100, 0, 0, 0};  // u32 100: none of it follows
  Reader r(ByteSpan(raw, sizeof(raw)));
  EXPECT_THROW((void)r.bytes(), CodecError);
}

TEST(Codec, InvalidBooleanThrows) {
  const Bytes raw = {2};
  Reader r(ByteSpan(raw.data(), raw.size()));
  EXPECT_THROW((void)r.boolean(), CodecError);
}

TEST(Codec, VectorCountLimit) {
  Writer w;
  w.u32(1U << 30);  // absurd element count
  Reader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_THROW(
      (void)r.vec<std::uint32_t>([](Reader& in) { return in.u32(); }),
      CodecError);
}

TEST(Codec, ExpectExhausted) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(ByteSpan(w.data().data(), w.data().size()));
  (void)r.u8();
  EXPECT_THROW(r.expect_exhausted(), CodecError);
  (void)r.u8();
  EXPECT_NO_THROW(r.expect_exhausted());
}

TEST(Codec, RawRoundtrip) {
  Writer w;
  const Bytes fixed = {1, 2, 3, 4};
  w.raw(fixed);
  Reader r(ByteSpan(w.data().data(), w.data().size()));
  EXPECT_EQ(r.raw(4), fixed);
}

}  // namespace
}  // namespace probft
