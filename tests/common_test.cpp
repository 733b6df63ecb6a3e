// Unit tests for src/common: bytes, codec, rng, ring buffer, stats,
// counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/counters.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace rubin {
namespace {

// ---------------------------------------------------------------- bytes --

TEST(Bytes, RoundTripString) {
  const Bytes b = to_bytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Bytes, HexEncodeDecode) {
  const Bytes b{0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  EXPECT_EQ(to_hex(b), "deadbeef007f");
  EXPECT_EQ(from_hex("deadbeef007f"), b);
  EXPECT_EQ(from_hex("DEADBEEF007F"), b);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex(Bytes{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, HexRejectsNonHexDigit) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a{1, 2, 3};
  const Bytes b{1, 2, 3};
  const Bytes c{1, 2, 4};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, ByteView(a).subspan(0, 2)));
  EXPECT_TRUE(constant_time_equal(Bytes{}, Bytes{}));
}

TEST(Bytes, PatternRoundTrip) {
  const Bytes p = patterned_bytes(1000, 0xabcdef12345678ULL);
  EXPECT_TRUE(check_pattern(p, 0xabcdef12345678ULL));
  EXPECT_FALSE(check_pattern(p, 0xabcdef12345679ULL));
}

TEST(Bytes, PatternDetectsCorruption) {
  Bytes p = patterned_bytes(64, 7);
  p[33] ^= 0x01;
  EXPECT_FALSE(check_pattern(p, 7));
}

TEST(Bytes, PatternEmptyAlwaysMatches) {
  EXPECT_TRUE(check_pattern(Bytes{}, 42));
}

// ---------------------------------------------------------------- codec --

TEST(Codec, PrimitiveRoundTrip) {
  Encoder enc;
  enc.u8(0xAB);
  enc.u32(0xDEADBEEF);
  enc.u64(0x0123456789ABCDEFULL);
  enc.flag(true);
  const Bytes wire = enc.take();

  Decoder dec(wire);
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  bool f = false;
  ASSERT_TRUE(dec.u8(a) && dec.u32(b) && dec.u64(c) && dec.flag(f));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(f);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, LittleEndianLayout) {
  Encoder enc;
  enc.u32(0x04030201);
  const Bytes wire = enc.take();
  ASSERT_EQ(wire.size(), 4u);
  EXPECT_EQ(wire[0], 0x01);
  EXPECT_EQ(wire[3], 0x04);

  std::uint8_t cell[8];
  store_le(cell, std::uint64_t{0x0807060504030201ULL});
  EXPECT_EQ(cell[0], 0x01);
  EXPECT_EQ(cell[7], 0x08);
  EXPECT_EQ(load_le<std::uint64_t>(cell), 0x0807060504030201ULL);
  EXPECT_EQ(load_le<std::uint16_t>(cell + 2), 0x0403);
}

TEST(Codec, BytesAndStringRoundTrip) {
  Encoder enc;
  enc.bytes(Bytes{9, 8, 7});
  enc.bytes(std::string_view("consensus"));
  enc.bytes(Bytes{});
  const Bytes wire = enc.take();

  Decoder dec(wire);
  Bytes a;
  std::string b;
  Bytes c{1};
  ASSERT_TRUE(dec.bytes(a) && dec.bytes(b) && dec.bytes(c));
  EXPECT_EQ(a, (Bytes{9, 8, 7}));
  EXPECT_EQ(b, "consensus");
  EXPECT_EQ(c, Bytes{});
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, RawBytesNoPrefix) {
  Encoder enc;
  enc.raw(Bytes{1, 2, 3});
  EXPECT_EQ(enc.size(), 3u);
  Decoder dec(enc.view());
  std::array<std::uint8_t, 3> out{};
  ASSERT_TRUE(dec.raw(out));
  EXPECT_EQ(out, (std::array<std::uint8_t, 3>{1, 2, 3}));
}

TEST(Codec, TruncatedReadsReturnNullopt) {
  Encoder enc;
  enc.u32(7);
  const Bytes wire = enc.take();

  Decoder dec(ByteView(wire).subspan(0, 2));
  std::uint32_t v = 0;
  EXPECT_FALSE(dec.u32(v));
  EXPECT_EQ(Decoder(ByteView(wire).subspan(0, 2)).get_u64(), std::nullopt);
}

TEST(Codec, OverrunningLengthPrefixRejected) {
  // Claims 100 bytes follow but only 2 do — must not read past the end.
  Encoder enc;
  enc.u32(100);
  enc.u8(1);
  enc.u8(2);
  Decoder dec(enc.view());
  Bytes out;
  EXPECT_FALSE(dec.bytes(out));
}

TEST(Codec, EmptyDecoderIsExhausted) {
  Decoder dec(ByteView{});
  EXPECT_TRUE(dec.exhausted());
  std::uint8_t v = 0;
  EXPECT_FALSE(dec.u8(v));
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = r.next_in(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all 4 values hit in 200 draws
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

// --------------------------------------------------------------- stats ---

TEST(LatencyRecorder, ExactPercentiles) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(r.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.percentile(1.0), 100.0);
  EXPECT_NEAR(r.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(r.percentile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(r.mean(), 50.5);
}

TEST(LatencyRecorder, EmptyPercentileThrows) {
  LatencyRecorder r;
  EXPECT_THROW(r.percentile(0.5), std::logic_error);
}

TEST(LatencyRecorder, AddAfterPercentileResorts) {
  LatencyRecorder r;
  r.add(10.0);
  r.add(20.0);
  EXPECT_DOUBLE_EQ(r.max(), 20.0);
  r.add(5.0);
  EXPECT_DOUBLE_EQ(r.min(), 5.0);
}

// ------------------------------------------------------------- counters --

TEST(Counters, AccumulateAndReset) {
  counters::reset();
  EXPECT_EQ(counters::value("test.widget"), 0u);
  RUBIN_COUNT("test.widget", 1);
  RUBIN_COUNT("test.widget", 2);
  EXPECT_EQ(counters::value("test.widget"), 3u);

  // The snapshot perfbench digests: sorted by name across every family
  // (fabric.* next to the data-path names), a zero-delta add still lists
  // its name, and a reset empties it.
  RUBIN_COUNT("verbs.srq.stolen", 0);
  RUBIN_COUNT("fabric.frames_dropped", 4);
  EXPECT_EQ(counters::snapshot(),
            (counters::Snapshot{{"fabric.frames_dropped", 4},
                                {"test.widget", 3},
                                {"verbs.srq.stolen", 0}}));
  counters::reset();
  EXPECT_TRUE(counters::snapshot().empty());
  EXPECT_EQ(counters::value("test.widget"), 0u);
}

}  // namespace
}  // namespace rubin
