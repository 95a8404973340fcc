// Tests for common/: Status/Result, Rng, string utilities, ASCII plots.

#include <cstdint>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "common/ascii_plot.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace mivid {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing clip 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing clip 7");
  EXPECT_EQ(s.ToString(), "NotFound: missing clip 7");
}

TEST(StatusTest, CopyIsCheapAndSharesRep) {
  Status a = Status::IOError("disk gone");
  Status b = a;
  EXPECT_TRUE(b.IsIOError());
  EXPECT_EQ(b.message(), "disk gone");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

/// 64-bit FNV-1a over the bit patterns of the first `n` Gaussian() draws.
uint64_t GaussianStreamHash(uint64_t seed, int n) {
  Rng rng(seed);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    uint64_t bits = 0;
    std::memcpy(&bits, &g, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

TEST(RngTest, GaussianStreamPinned) {
  // The simulator, the feedback oracle and many tests draw Gaussian(); its
  // bits are pinned so a refactor of the Box-Muller transform cannot move
  // them.
  EXPECT_EQ(GaussianStreamHash(42, 100000), 0x4da6330f5855e3f1ULL);
  EXPECT_EQ(GaussianStreamHash(7, 100000), 0xd40e85dc948f598fULL);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, SplitAndJoin) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
}

TEST(StringUtilTest, SplitNoDelimiter) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("model_foo.svm", "model_"));
  EXPECT_FALSE(StartsWith("mod", "model_"));
  EXPECT_TRUE(EndsWith("model_foo.svm", ".svm"));
  EXPECT_FALSE(EndsWith("svm", ".svm"));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("4.2", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(AsciiPlotTest, EmptyPlotDoesNotCrash) {
  const std::string out = AsciiLinePlot({}, PlotOptions{});
  EXPECT_NE(out.find("empty"), std::string::npos);
}

TEST(AsciiPlotTest, PlotsContainGlyphAndLegend) {
  PlotSeries s;
  s.name = "acc";
  s.glyph = '*';
  s.xs = {0, 1, 2, 3};
  s.ys = {40, 45, 55, 60};
  PlotOptions opts;
  opts.title = "curve";
  const std::string out = AsciiLinePlot({s}, opts);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("acc"), std::string::npos);
  EXPECT_NE(out.find("curve"), std::string::npos);
}

TEST(AsciiPlotTest, BarChartScalesToMax) {
  const std::string out =
      AsciiBarChart({{"a", 1.0}, {"b", 2.0}}, "bars", 10);
  EXPECT_NE(out.find("bars"), std::string::npos);
  EXPECT_NE(out.find("##########"), std::string::npos);
}

TEST(AsciiPlotTest, TableAlignsColumns) {
  const std::string out =
      AsciiTable({"col", "value"}, {{"x", "1"}, {"longer", "2"}});
  EXPECT_NE(out.find("| col"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

}  // namespace
}  // namespace mivid
