#include "stats/bootstrap.h"

#include <gtest/gtest.h>

#include <vector>

#include "stats/descriptive.h"

namespace vdbench::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, double mean, double sd,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& x : out) x = rng.normal(mean, sd);
  return out;
}

TEST(BootstrapTest, MeanCiBracketsSampleMean) {
  const auto sample = normal_sample(200, 5.0, 1.0, 1);
  Rng rng(2);
  const ConfidenceInterval ci = bootstrap_mean_ci(sample, rng, 800);
  EXPECT_LE(ci.lower, ci.estimate);
  EXPECT_GE(ci.upper, ci.estimate);
  EXPECT_DOUBLE_EQ(ci.estimate, mean(sample));
}

TEST(BootstrapTest, MeanCiContainsTrueMeanForWellBehavedData) {
  const auto sample = normal_sample(400, 5.0, 1.0, 3);
  Rng rng(4);
  const ConfidenceInterval ci = bootstrap_mean_ci(sample, rng, 1000, 0.99);
  EXPECT_TRUE(ci.contains(5.0)) << "[" << ci.lower << "," << ci.upper << "]";
}

TEST(BootstrapTest, NarrowerWithMoreData) {
  Rng rng(5);
  const auto small = normal_sample(50, 0.0, 1.0, 6);
  const auto large = normal_sample(5000, 0.0, 1.0, 7);
  const double w_small = bootstrap_mean_ci(small, rng, 500).width();
  const double w_large = bootstrap_mean_ci(large, rng, 500).width();
  EXPECT_LT(w_large, w_small);
}

TEST(BootstrapTest, DeterministicGivenSeed) {
  const auto sample = normal_sample(100, 1.0, 2.0, 8);
  Rng a(9), b(9);
  const ConfidenceInterval ca = bootstrap_mean_ci(sample, a, 300);
  const ConfidenceInterval cb = bootstrap_mean_ci(sample, b, 300);
  EXPECT_DOUBLE_EQ(ca.lower, cb.lower);
  EXPECT_DOUBLE_EQ(ca.upper, cb.upper);
}

TEST(BootstrapTest, CustomStatisticMedian) {
  const std::vector<double> sample = {1.0, 2.0, 3.0, 4.0, 100.0};
  Rng rng(10);
  const ConfidenceInterval ci = bootstrap_ci(
      sample, [](std::span<const double> xs) { return median(xs); }, rng,
      500);
  EXPECT_DOUBLE_EQ(ci.estimate, 3.0);
  EXPECT_GE(ci.lower, 1.0);
  EXPECT_LE(ci.upper, 100.0);
}

TEST(BootstrapTest, DegenerateSampleGivesZeroWidth) {
  const std::vector<double> same = {4.0, 4.0, 4.0, 4.0};
  Rng rng(11);
  const ConfidenceInterval ci = bootstrap_mean_ci(same, rng, 200);
  EXPECT_DOUBLE_EQ(ci.lower, 4.0);
  EXPECT_DOUBLE_EQ(ci.upper, 4.0);
}

TEST(BootstrapTest, RejectsBadArguments) {
  const std::vector<double> empty;
  const std::vector<double> ok = {1.0, 2.0};
  Rng rng(12);
  EXPECT_THROW(bootstrap_mean_ci(empty, rng), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(ok, rng, 0), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(ok, rng, 100, 0.0), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(ok, rng, 100, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::stats
