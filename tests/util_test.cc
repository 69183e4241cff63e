#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/hash.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/str.h"

namespace setalg::util {
namespace {

// ---------------------------------------------------------------------------
// Hashing.
// ---------------------------------------------------------------------------

TEST(Hash, FnvIsDeterministic) {
  EXPECT_EQ(FnvHashString("division"), FnvHashString("division"));
  EXPECT_NE(FnvHashString("division"), FnvHashString("semijoin"));
}

TEST(Hash, FnvEmptyStringIsOffsetBasis) {
  EXPECT_EQ(FnvHashString(""), kFnvOffsetBasis);
}

TEST(Hash, Mix64SeparatesNearbyInputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Hash, HashCombineIsOrderDependent) {
  const std::uint64_t ab = HashCombine(HashCombine(0, 1), 2);
  const std::uint64_t ba = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(Hash, HashCombineUnorderedIsCommutative) {
  const std::uint64_t ab = HashCombineUnordered(HashCombineUnordered(7, 1), 2);
  const std::uint64_t ba = HashCombineUnordered(HashCombineUnordered(7, 2), 1);
  EXPECT_EQ(ab, ba);
}

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 15);
}

TEST(Rng, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(13), 13u);
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleDistinctProducesDistinctIndices) {
  Rng rng(13);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto sample = rng.SampleDistinct(k, 100);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (std::size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(Zipf, SamplesWithinRange) {
  Rng rng(17);
  ZipfDistribution zipf(10, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t s = zipf.Sample(&rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 10u);
  }
}

TEST(Zipf, SkewFavorsSmallValues) {
  Rng rng(19);
  ZipfDistribution zipf(100, 1.2);
  std::size_t low = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (zipf.Sample(&rng) <= 10) ++low;
  }
  // With s=1.2 the first decile carries well over half the mass.
  EXPECT_GT(low, static_cast<std::size_t>(kTrials) / 2);
}

TEST(Zipf, ZeroSkewIsUniformish) {
  Rng rng(23);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(&rng)];
  for (int v = 1; v <= 10; ++v) {
    EXPECT_GT(counts[v], 700);
    EXPECT_LT(counts[v], 1300);
  }
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

TEST(Stats, FitLineRecoversExactLine) {
  const auto fit = FitLine({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 2x + 1.
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, FitLineDegenerateXs) {
  const auto fit = FitLine({2, 2, 2}, {1, 2, 3});
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
}

TEST(Stats, GrowthExponentLinearData) {
  std::vector<std::size_t> ns = {100, 200, 400, 800};
  std::vector<std::size_t> sizes = {300, 600, 1200, 2400};
  const auto fit = FitGrowthExponent(ns, sizes);
  EXPECT_NEAR(fit.slope, 1.0, 0.01);
}

TEST(Stats, GrowthExponentQuadraticData) {
  std::vector<std::size_t> ns = {10, 20, 40, 80};
  std::vector<std::size_t> sizes = {100, 400, 1600, 6400};
  const auto fit = FitGrowthExponent(ns, sizes);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
}

TEST(Stats, GrowthExponentClampsZeroSizes) {
  std::vector<std::size_t> ns = {10, 100};
  std::vector<std::size_t> sizes = {0, 0};
  const auto fit = FitGrowthExponent(ns, sizes);
  EXPECT_NEAR(fit.slope, 0.0, 1e-9);
}

TEST(Stats, SummarizeBasics) {
  const auto s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_NEAR(s.mean, 2.5, 1e-9);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-9);
}

TEST(Stats, SummarizeEmpty) {
  const auto s = Summarize({});
  EXPECT_EQ(s.mean, 0.0);
}

// ---------------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------------

TEST(Str, StrCatMixesTypes) { EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5"); }

TEST(Str, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,,c");
  EXPECT_EQ(Split("a,,c", ','), parts);
}

TEST(Str, SplitSingleField) {
  EXPECT_EQ(Split("abc", ','), std::vector<std::string>{"abc"});
}

TEST(Str, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(Str, ParseInt64Valid) {
  long long v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("  17 ", &v));
  EXPECT_EQ(v, 17);
}

TEST(Str, ParseInt64Invalid) {
  long long v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("x12", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

// ---------------------------------------------------------------------------
// Result.
// ---------------------------------------------------------------------------

TEST(Result, OkCarriesValue) {
  Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
}

TEST(Result, ErrorCarriesMessage) {
  auto r = Result<int>::Error("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "boom");
}

}  // namespace
}  // namespace setalg::util
