// Golden vectors for stats::Rng. The expected values come from
// tests/support/rng_golden.py, which implements mt19937_64 and every
// variate formula in Python, so a change of formula, engine or standard
// library that moves one draw fails here by name.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rng_golden_vectors.h"
#include "stats/rng.h"

namespace vdbench::stats {
namespace {

template <typename T, typename Draw>
void expect_table(const golden::Table<T>& table, Draw draw) {
  for (std::size_t s = 0; s < golden::kGoldenSeeds.size(); ++s) {
    Rng rng(golden::kGoldenSeeds[s]);
    for (std::size_t i = 0; i < table[s].size(); ++i)
      EXPECT_EQ(draw(rng), table[s][i])
          << "seed " << golden::kGoldenSeeds[s] << ", draw " << i;
  }
}

TEST(RngGoldenTest, EngineMeetsTheStandardsCheckValue) {
  // [rand.predef]: the 10000th output of a default-constructed
  // mt19937_64, whose seed is 5489. Every golden vector below rests on
  // this sequence.
  Mt64 engine(5489);
  for (int i = 0; i < 9999; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(RngGoldenTest, Uniform) {
  expect_table(golden::kUniform, [](Rng& rng) { return rng.uniform(); });
}

TEST(RngGoldenTest, UniformRange) {
  expect_table(golden::kUniformRange,
               [](Rng& rng) { return rng.uniform(-2.0, 5.0); });
}

TEST(RngGoldenTest, UniformIntSmallRange) {
  expect_table(golden::kUniformIntSmall,
               [](Rng& rng) { return rng.uniform_int(-3, 3); });
}

TEST(RngGoldenTest, UniformIntPlusMinusTwoToThe62) {
  constexpr std::int64_t kBound = std::int64_t{1} << 62;
  expect_table(golden::kUniformIntPow62,
               [](Rng& rng) { return rng.uniform_int(-kBound, kBound); });
}

TEST(RngGoldenTest, UniformIntFullRange) {
  expect_table(golden::kUniformIntFull, [](Rng& rng) {
    return rng.uniform_int(INT64_MIN, INT64_MAX);
  });
}

TEST(RngGoldenTest, Bernoulli) {
  expect_table(golden::kBernoulli,
               [](Rng& rng) { return rng.bernoulli(0.3); });
}

TEST(RngGoldenTest, Normal) {
  expect_table(golden::kNormal,
               [](Rng& rng) { return rng.normal(10.0, 2.0); });
}

TEST(RngGoldenTest, Lognormal) {
  expect_table(golden::kLognormal,
               [](Rng& rng) { return rng.lognormal(0.5, 0.75); });
}

TEST(RngGoldenTest, Binomial) {
  expect_table(golden::kBinomial,
               [](Rng& rng) { return rng.binomial(50, 0.4); });
}

TEST(RngGoldenTest, BinomialOverSeveralStateBlocks) {
  // 1000 outputs per call, so calls span and end inside 312-output blocks.
  expect_table(golden::kBinomial1000,
               [](Rng& rng) { return rng.binomial(1000, 0.03); });
}

TEST(RngGoldenTest, Categorical) {
  const std::vector<double> weights = {0.0, 3.0, 1.0, 0.5};
  expect_table(golden::kCategorical,
               [&weights](Rng& rng) { return rng.categorical(weights); });
}

TEST(RngGoldenTest, PickIndex) {
  expect_table(golden::kPickIndex,
               [](Rng& rng) { return rng.pick_index(10); });
}

TEST(RngGoldenTest, SampleWithoutReplacement) {
  for (std::size_t s = 0; s < golden::kGoldenSeeds.size(); ++s) {
    Rng rng(golden::kGoldenSeeds[s]);
    const std::vector<std::size_t> sample =
        rng.sample_without_replacement(100, 16);
    EXPECT_EQ(sample,
              std::vector<std::size_t>(golden::kSampleWithoutReplacement[s].begin(),
                                       golden::kSampleWithoutReplacement[s].end()))
        << "seed " << golden::kGoldenSeeds[s];
  }
}

}  // namespace
}  // namespace vdbench::stats
