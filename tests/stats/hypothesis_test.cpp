#include "stats/hypothesis.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "stats/rng.h"

namespace vdbench::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, double mean, double sd,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& x : out) x = rng.normal(mean, sd);
  return out;
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(NormalQuantileTest, InvertsCdf) {
  for (const double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8) << "p=" << p;
  }
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
}

TEST(NormalQuantileTest, RejectsBoundary) {
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

TEST(WelchTest, DetectsClearDifference) {
  const auto xs = normal_sample(100, 0.0, 1.0, 1);
  const auto ys = normal_sample(100, 2.0, 1.0, 2);
  const TestResult r = welch_t_test(xs, ys);
  EXPECT_LT(r.p_value, 0.001);
  EXPECT_TRUE(r.significant_at(0.05));
  EXPECT_LT(r.statistic, 0.0);  // xs mean below ys mean
}

TEST(WelchTest, NoDifferenceGivesLargePValue) {
  const auto xs = normal_sample(200, 1.0, 1.0, 3);
  const auto ys = normal_sample(200, 1.0, 1.0, 4);
  const TestResult r = welch_t_test(xs, ys);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(WelchTest, PValueInUnitInterval) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto xs = normal_sample(30, rng.uniform(), 1.0, 100 + trial);
    const auto ys = normal_sample(40, rng.uniform(), 2.0, 200 + trial);
    const TestResult r = welch_t_test(xs, ys);
    EXPECT_GE(r.p_value, 0.0);
    EXPECT_LE(r.p_value, 1.0);
  }
}

TEST(WelchTest, IdenticalConstantSamples) {
  const std::vector<double> xs = {2.0, 2.0, 2.0};
  const TestResult r = welch_t_test(xs, xs);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(WelchTest, RequiresTwoPerSample) {
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW(welch_t_test(one, two), std::invalid_argument);
}

TEST(ProbabilityOfSuperiorityTest, SeparatedSamples) {
  const std::vector<double> hi = {10.0, 11.0, 12.0};
  const std::vector<double> lo = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(probability_of_superiority(hi, lo), 1.0);
  EXPECT_DOUBLE_EQ(probability_of_superiority(lo, hi), 0.0);
}

TEST(ProbabilityOfSuperiorityTest, TiesCountHalf) {
  const std::vector<double> xs = {1.0};
  const std::vector<double> ys = {1.0};
  EXPECT_DOUBLE_EQ(probability_of_superiority(xs, ys), 0.5);
}

// The all-pairs definition the sort-merge count must reproduce bit for bit.
double pairwise_superiority(const std::vector<double>& xs,
                            const std::vector<double>& ys) {
  double wins = 0.0;
  for (const double x : xs) {
    for (const double y : ys) {
      if (x > y)
        wins += 1.0;
      else if (x == y)
        wins += 0.5;
    }
  }
  return wins / (static_cast<double>(xs.size()) *
                 static_cast<double>(ys.size()));
}

// Values on a 0.01 grid (many ties) mixed with NaN, both zeros and both
// infinities.
std::vector<double> tie_heavy_sample(std::size_t n, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> out(n);
  for (double& v : out) {
    switch (rng.uniform_int(0, 19)) {
      case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v = -0.0; break;
      case 2: v = 0.0; break;
      case 3: v = kInf; break;
      case 4: v = -kInf; break;
      default: v = static_cast<double>(rng.uniform_int(-50, 50)) * 0.01;
    }
  }
  return out;
}

TEST(ProbabilityOfSuperiorityTest, MatchesThePairwiseDefinitionBitForBit) {
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {1, 3000}, {3000, 1}, {2000, 3000}};
  for (const auto& [nx, ny] : sizes) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed * 7919 + nx + ny);
      const std::vector<double> xs = tie_heavy_sample(nx, rng);
      const std::vector<double> ys = tie_heavy_sample(ny, rng);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(probability_of_superiority(xs, ys)),
                std::bit_cast<std::uint64_t>(pairwise_superiority(xs, ys)))
          << nx << "x" << ny << " seed " << seed;
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> cases[][2] = {
      {{nan}, {nan}}, {{-0.0}, {0.0}}, {{inf}, {inf}}, {{nan, 1.0}, {0.5}},
      {{-inf}, {nan, -inf, 0.0}}};
  for (const auto& c : cases)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(probability_of_superiority(c[0], c[1])),
              std::bit_cast<std::uint64_t>(pairwise_superiority(c[0], c[1])));
}

TEST(WilsonIntervalTest, BracketsTheProportion) {
  const ProportionInterval pi = wilson_interval(70.0, 100.0);
  EXPECT_DOUBLE_EQ(pi.estimate, 0.7);
  EXPECT_LT(pi.lower, 0.7);
  EXPECT_GT(pi.upper, 0.7);
  EXPECT_GT(pi.lower, 0.59);
  EXPECT_LT(pi.upper, 0.79);
}

TEST(WilsonIntervalTest, WellBehavedAtExtremes) {
  const ProportionInterval zero = wilson_interval(0.0, 50.0);
  EXPECT_DOUBLE_EQ(zero.estimate, 0.0);
  EXPECT_DOUBLE_EQ(zero.lower, 0.0);
  EXPECT_GT(zero.upper, 0.0);  // unlike the Wald interval
  const ProportionInterval one = wilson_interval(50.0, 50.0);
  EXPECT_DOUBLE_EQ(one.upper, 1.0);
  EXPECT_LT(one.lower, 1.0);
}

TEST(WilsonIntervalTest, NarrowsWithMoreTrials) {
  const double w_small =
      wilson_interval(7.0, 10.0).upper - wilson_interval(7.0, 10.0).lower;
  const double w_large = wilson_interval(700.0, 1000.0).upper -
                         wilson_interval(700.0, 1000.0).lower;
  EXPECT_LT(w_large, w_small);
}

TEST(WilsonIntervalTest, HigherConfidenceIsWider) {
  const ProportionInterval p90 = wilson_interval(30.0, 100.0, 0.90);
  const ProportionInterval p99 = wilson_interval(30.0, 100.0, 0.99);
  EXPECT_GT(p99.upper - p99.lower, p90.upper - p90.lower);
}

TEST(WilsonIntervalTest, AcceptsFractionalSuccesses) {
  EXPECT_NO_THROW(wilson_interval(12.5, 40.0));
}

TEST(WilsonIntervalTest, RejectsBadArguments) {
  EXPECT_THROW(wilson_interval(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(wilson_interval(-1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(wilson_interval(11.0, 10.0), std::invalid_argument);
  EXPECT_THROW(wilson_interval(5.0, 10.0, 1.0), std::invalid_argument);
}

TEST(ProbabilityOfSuperiorityTest, MatchesAucInterpretation) {
  // For two unit-variance normals one d' apart, P(X>Y) = Phi(d'/sqrt(2)).
  const auto xs = normal_sample(2000, 1.0, 1.0, 10);
  const auto ys = normal_sample(2000, 0.0, 1.0, 11);
  EXPECT_NEAR(probability_of_superiority(xs, ys),
              normal_cdf(1.0 / std::sqrt(2.0)), 0.02);
}

}  // namespace
}  // namespace vdbench::stats
