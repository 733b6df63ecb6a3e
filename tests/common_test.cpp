// Unit tests for src/common: bytes, codec, rng, ring buffer, stats,
// counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/counters.hpp"
#include "common/ring_buffer.hpp"
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
  enc.put_u8(0xAB);
  enc.put_u16(0xBEEF);
  enc.put_u32(0xDEADBEEF);
  enc.put_u64(0x0123456789ABCDEFULL);
  enc.put_i64(-42);
  const Bytes wire = enc.take();

  Decoder dec(wire);
  EXPECT_EQ(dec.get_u8(), 0xAB);
  EXPECT_EQ(dec.get_u16(), 0xBEEF);
  EXPECT_EQ(dec.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(dec.get_i64(), -42);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, LittleEndianLayout) {
  Encoder enc;
  enc.put_u32(0x04030201);
  const Bytes wire = enc.take();
  ASSERT_EQ(wire.size(), 4u);
  EXPECT_EQ(wire[0], 0x01);
  EXPECT_EQ(wire[3], 0x04);
}

TEST(Codec, BytesAndStringRoundTrip) {
  Encoder enc;
  enc.put_bytes(Bytes{9, 8, 7});
  enc.put_string("consensus");
  enc.put_bytes(Bytes{});
  const Bytes wire = enc.take();

  Decoder dec(wire);
  EXPECT_EQ(dec.get_bytes(), (Bytes{9, 8, 7}));
  EXPECT_EQ(dec.get_string(), "consensus");
  EXPECT_EQ(dec.get_bytes(), Bytes{});
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, RawBytesNoPrefix) {
  Encoder enc;
  enc.put_raw(Bytes{1, 2, 3});
  EXPECT_EQ(enc.size(), 3u);
  Decoder dec(enc.view());
  EXPECT_EQ(dec.get_raw(3), (Bytes{1, 2, 3}));
}

TEST(Codec, TruncatedReadsReturnNullopt) {
  Encoder enc;
  enc.put_u32(7);
  const Bytes wire = enc.take();

  Decoder dec(ByteView(wire).subspan(0, 2));
  EXPECT_EQ(dec.get_u32(), std::nullopt);
}

TEST(Codec, OverrunningLengthPrefixRejected) {
  // Claims 100 bytes follow but only 2 do — must not read past the end.
  Encoder enc;
  enc.put_u32(100);
  enc.put_u8(1);
  enc.put_u8(2);
  Decoder dec(enc.view());
  EXPECT_EQ(dec.get_bytes(), std::nullopt);
}

TEST(Codec, EmptyDecoderIsExhausted) {
  Decoder dec(ByteView{});
  EXPECT_TRUE(dec.exhausted());
  EXPECT_EQ(dec.get_u8(), std::nullopt);
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

// --------------------------------------------------------------- ring ----

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_TRUE(rb.push(3));
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), std::nullopt);
}

TEST(RingBuffer, RejectsWhenFull) {
  RingBuffer<int> rb(2);
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.push(3));
  EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, WrapsAround) {
  RingBuffer<int> rb(3);
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(rb.push(round));
    EXPECT_TRUE(rb.push(round + 100));
    EXPECT_EQ(rb.pop(), round);
    EXPECT_EQ(rb.pop(), round + 100);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, FrontPeeksWithoutRemoving) {
  RingBuffer<int> rb(2);
  EXPECT_EQ(rb.front(), nullptr);
  ASSERT_TRUE(rb.push(42));
  ASSERT_NE(rb.front(), nullptr);
  EXPECT_EQ(*rb.front(), 42);
  EXPECT_EQ(rb.size(), 1u);
}

TEST(RingBuffer, ClearEmpties) {
  RingBuffer<int> rb(4);
  ASSERT_TRUE(rb.push(1));
  ASSERT_TRUE(rb.push(2));
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_TRUE(rb.push(7));
  EXPECT_EQ(rb.pop(), 7);
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
