#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/ascii_chart.h"
#include "util/coding.h"
#include "util/cost_meter.h"
#include "util/key_codec.h"
#include "util/rng.h"
#include "util/status.h"

namespace dynopt {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing row");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing row");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_EQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_EQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotSupported), "NotSupported");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            "ResourceExhausted");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::IOError("x"), Status::IOError("x"));
  EXPECT_FALSE(Status::IOError("x") == Status::IOError("y"));
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UseParse(int v, int* out) {
  DYNOPT_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(-1), 7);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParse(5, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseParse(0, &out).IsInvalidArgument());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(4);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double d = rng.NextGaussian(2.0, 3.0);
    sum += d;
    sq += d * d;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfGenerator z(10, 0.0);
  for (uint64_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(z.Pmf(r), 0.1, 1e-12);
  }
}

TEST(ZipfTest, SkewOrdersRanks) {
  ZipfGenerator z(100, 1.0);
  for (uint64_t r = 1; r < 100; ++r) {
    EXPECT_GT(z.Pmf(r - 1), z.Pmf(r));
  }
}

TEST(ZipfTest, SampleFrequenciesMatchPmf) {
  ZipfGenerator z(20, 1.2);
  Rng rng(5);
  std::vector<int> hits(20, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) hits[z.Next(rng)]++;
  for (uint64_t r = 0; r < 20; ++r) {
    EXPECT_NEAR(static_cast<double>(hits[r]) / n, z.Pmf(r), 0.01)
        << "rank " << r;
  }
}

// ------------------------------------------------------------- KeyCodec

TEST(KeyCodecTest, Int64RoundTrip) {
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-100},
                    int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{424242},
                    std::numeric_limits<int64_t>::max()}) {
    std::string enc;
    EncodeInt64(v, &enc);
    ASSERT_EQ(enc.size(), 8u);
    std::string_view sv(enc);
    int64_t back = 0;
    ASSERT_TRUE(DecodeInt64(&sv, &back).ok());
    EXPECT_EQ(back, v);
    EXPECT_TRUE(sv.empty());
  }
}

TEST(KeyCodecTest, DoubleRoundTrip) {
  for (double v : {-1e300, -1.5, -0.0, 0.0, 1e-300, 2.75, 1e300}) {
    std::string enc;
    EncodeDouble(v, &enc);
    std::string_view sv(enc);
    double back = 0;
    ASSERT_TRUE(DecodeDouble(&sv, &back).ok());
    EXPECT_EQ(back, v);
  }
}

TEST(KeyCodecTest, StringRoundTripWithEmbeddedNulAndEscapes) {
  for (std::string v : {std::string(), std::string("abc"),
                        std::string("a\x00"
                                    "b",
                                    3),
                        std::string("\x00\x00", 2), std::string("\xff\xfe"),
                        std::string(300, 'z')}) {
    std::string enc;
    EncodeString(v, &enc);
    std::string_view sv(enc);
    std::string back;
    ASSERT_TRUE(DecodeString(&sv, &back).ok());
    EXPECT_EQ(back, v);
    EXPECT_TRUE(sv.empty());
  }
}

TEST(KeyCodecTest, DecodeErrorsOnGarbage) {
  std::string_view sv("\x01", 1);
  int64_t i;
  EXPECT_TRUE(DecodeInt64(&sv, &i).IsCorruption());
  std::string_view unterminated("abc", 3);
  std::string s;
  EXPECT_TRUE(DecodeString(&unterminated, &s).IsCorruption());
}

class Int64OrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Int64OrderTest, RandomPairsPreserveOrder) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    int64_t a = rng.NextInt(std::numeric_limits<int64_t>::min() / 2,
                            std::numeric_limits<int64_t>::max() / 2);
    int64_t b = rng.NextInt(std::numeric_limits<int64_t>::min() / 2,
                            std::numeric_limits<int64_t>::max() / 2);
    std::string ea, eb;
    EncodeInt64(a, &ea);
    EncodeInt64(b, &eb);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
    EXPECT_EQ(a == b, ea == eb);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Int64OrderTest,
                         ::testing::Values(11, 22, 33, 44));

class DoubleOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DoubleOrderTest, RandomPairsPreserveOrder) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    double a = (rng.NextDouble() - 0.5) * std::pow(10.0, rng.NextInt(-20, 20));
    double b = (rng.NextDouble() - 0.5) * std::pow(10.0, rng.NextInt(-20, 20));
    std::string ea, eb;
    EncodeDouble(a, &ea);
    EncodeDouble(b, &eb);
    EXPECT_EQ(a < b, ea < eb) << a << " vs " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoubleOrderTest,
                         ::testing::Values(55, 66, 77));

TEST(KeyCodecTest, StringOrderWithPrefixesAndNuls) {
  std::vector<std::string> values = {
      std::string(),
      std::string("\x00", 1),
      std::string("\x00\x00", 2),
      std::string("a"),
      std::string("a\x00", 2),
      std::string("a\x00\x01", 3),
      std::string("aa"),
      std::string("ab"),
      std::string("b"),
  };
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      std::string ei, ej;
      EncodeString(values[i], &ei);
      EncodeString(values[j], &ej);
      EXPECT_EQ(values[i] < values[j], ei < ej) << i << "," << j;
    }
  }
}

TEST(KeyCodecTest, CompositeKeysOrderLexicographically) {
  // (int, string) composite must order by first column then second.
  auto make = [](int64_t a, std::string_view b) {
    std::string k;
    EncodeInt64(a, &k);
    EncodeString(b, &k);
    return k;
  };
  EXPECT_LT(make(1, "zzz"), make(2, "aaa"));
  EXPECT_LT(make(2, "aaa"), make(2, "aab"));
  EXPECT_LT(make(2, "aa"), make(2, "aaa"));
  EXPECT_LT(make(-5, "x"), make(0, ""));
}

TEST(KeyCodecTest, PrefixSuccessorBoundsPrefixRange) {
  std::string key = "abc";
  std::string succ = PrefixSuccessor(key);
  EXPECT_EQ(succ, "abd");
  EXPECT_GT(succ, key);
  EXPECT_GT(succ, key + "zzzz");
  std::string all_ff("\xff\xff", 2);
  EXPECT_TRUE(PrefixSuccessor(all_ff).empty());
  std::string mixed("a\xff", 2);
  EXPECT_EQ(PrefixSuccessor(mixed), "b");
}

TEST(KeyCodecTest, PrefixSuccessorOfEncodedIntEqualsNextIntEncoding) {
  // For the 8-byte int encoding, PrefixSuccessor(enc(v)) == enc(v+1) unless
  // the encoding ends in 0xff bytes, where it is still a correct exclusive
  // bound (it strictly exceeds any key prefixed by enc(v)).
  std::string e41, e42;
  EncodeInt64(41, &e41);
  EncodeInt64(42, &e42);
  EXPECT_EQ(PrefixSuccessor(e41), e42);
}

// ---------------------------------------------------------------- Coding

TEST(CodingTest, AppendersPinLittleEndianBytes) {
  std::string out;
  PutU8(&out, 0xab);
  EXPECT_EQ(out, std::string("\xab", 1));
  out.clear();
  PutU32(&out, 0x01020304u);
  EXPECT_EQ(out, std::string("\x04\x03\x02\x01", 4));
  out.clear();
  PutU64(&out, 0x0102030405060708ull);
  EXPECT_EQ(out, std::string("\x08\x07\x06\x05\x04\x03\x02\x01", 8));
  out.clear();
  PutF64(&out, 1.0);  // IEEE-754 0x3ff0000000000000
  EXPECT_EQ(out, std::string("\x00\x00\x00\x00\x00\x00\xf0\x3f", 8));
  out.clear();
  PutStr(&out, "ab");
  EXPECT_EQ(out, std::string("\x02\x00\x00\x00" "ab", 6));
  out.clear();
  PutStr(&out, "");
  EXPECT_EQ(out, std::string(4, '\0'));
}

TEST(CodingTest, ReaderRoundTripsEveryPrimitive) {
  std::string bytes;
  PutU8(&bytes, 7);
  PutU32(&bytes, 0xdeadbeefu);
  PutU64(&bytes, ~0ull);
  PutF64(&bytes, -2.5);
  PutStr(&bytes, std::string("a\0b", 3));
  ByteReader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  std::string str;
  ASSERT_TRUE(r.U8(&u8) && r.U32(&u32) && r.U64(&u64) && r.F64(&f64) &&
              r.Str(&str));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, ~0ull);
  EXPECT_EQ(f64, -2.5);
  EXPECT_EQ(str, std::string("a\0b", 3));
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.U8(&u8));
}

TEST(CodingTest, EveryReadFailsOnTruncatedInputAndConsumesNothing) {
  std::string full;
  PutU64(&full, 0x1122334455667788ull);
  PutStr(&full, "xyz");  // bytes [8, 15)
  for (size_t n = 0; n < full.size(); ++n) {
    SCOPED_TRACE(n);
    const std::string_view cut = std::string_view(full).substr(0, n);
    uint8_t u8 = 0;
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    double f64 = 0;
    EXPECT_EQ(ByteReader(cut).U8(&u8), n >= 1);
    EXPECT_EQ(ByteReader(cut).U32(&u32), n >= 4);
    EXPECT_EQ(ByteReader(cut).U64(&u64), n >= 8);
    EXPECT_EQ(ByteReader(cut).F64(&f64), n >= 8);
    ByteReader r(cut);
    if (n < 8) {
      // A failed read leaves the position where it was.
      EXPECT_FALSE(r.U64(&u64));
      EXPECT_EQ(r.U8(&u8), n >= 1);
      if (n >= 1) {
        EXPECT_EQ(u8, 0x88);
      }
      continue;
    }
    ASSERT_TRUE(r.U64(&u64));
    std::string str = "untouched";
    EXPECT_FALSE(r.Str(&str));
    EXPECT_EQ(str, "untouched");
    EXPECT_EQ(r.U8(&u8), n > 8);
    if (n > 8) {
      EXPECT_EQ(u8, 3);  // the length prefix's low byte
    }
  }
}

TEST(CodingTest, StringLengthPastTheEndFailsWithoutAllocating) {
  // A 4 GiB length prefix in front of three bytes. A reader that sized
  // its buffer from the prefix would allocate 4 GiB here (bad_alloc, or
  // an allocation-size report under ASan).
  std::string bytes;
  PutU32(&bytes, 0xffffffffu);
  bytes += "abc";
  ByteReader r(bytes);
  std::string out;
  const size_t capacity = out.capacity();
  EXPECT_FALSE(r.Str(&out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), capacity);
  uint32_t len = 0;
  ASSERT_TRUE(r.U32(&len));
  EXPECT_EQ(len, 0xffffffffu);
}

// ----------------------------------------------------------- CostMeter

TEST(CostMeterTest, WeightedCost) {
  CostMeter m;
  m.physical_reads = 2;
  m.logical_reads = 10;
  CostWeights w;
  EXPECT_DOUBLE_EQ(m.Cost(w), 2 * w.physical_read + 10 * w.logical_read);
}

TEST(CostMeterTest, DifferenceAndAccumulate) {
  CostMeter a, b;
  a.physical_reads = 5;
  a.key_compares = 100;
  b.physical_reads = 2;
  b.key_compares = 40;
  CostMeter d = a - b;
  EXPECT_EQ(d.physical_reads, 3u);
  EXPECT_EQ(d.key_compares, 60u);
  b += d;
  EXPECT_EQ(b.physical_reads, 5u);
  EXPECT_EQ(b.key_compares, 100u);
}

TEST(CostMeterTest, ToStringMentionsCounters) {
  CostMeter m;
  m.physical_reads = 7;
  EXPECT_NE(m.ToString().find("pr=7"), std::string::npos);
}

// ---------------------------------------------------------- AsciiChart

TEST(AsciiChartTest, DownsampleAverages) {
  std::vector<double> v{1, 1, 3, 3};
  auto d = Downsample(v, 2);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
}

TEST(AsciiChartTest, AreaChartHasRequestedHeight) {
  auto chart = AsciiAreaChart({0.1, 0.5, 1.0}, 4, "t");
  int lines = static_cast<int>(std::count(chart.begin(), chart.end(), '\n'));
  EXPECT_EQ(lines, 4 + 3);  // title + 4 rows + axis + labels
}

TEST(AsciiChartTest, SparklinePeaksAtMax) {
  auto s = Sparkline({0.0, 1.0});
  EXPECT_NE(s.find("█"), std::string::npos);
}

TEST(AsciiChartTest, FormatTableAligns) {
  auto t = FormatTable({"a", "bbbb"}, {{"x", "1"}, {"yy", "22"}});
  EXPECT_NE(t.find("bbbb"), std::string::npos);
  EXPECT_NE(t.find("yy"), std::string::npos);
}

}  // namespace
}  // namespace dynopt
