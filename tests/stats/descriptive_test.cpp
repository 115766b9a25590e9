#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace vdbench::stats {
namespace {

const std::vector<double> kSample = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(DescriptiveTest, MeanKnownValue) {
  EXPECT_DOUBLE_EQ(mean(kSample), 5.0);
}

TEST(DescriptiveTest, MeanSingleElement) {
  const std::vector<double> one = {3.25};
  EXPECT_DOUBLE_EQ(mean(one), 3.25);
}

TEST(DescriptiveTest, MeanThrowsOnEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), std::invalid_argument);
}

TEST(DescriptiveTest, SampleVarianceKnownValue) {
  EXPECT_NEAR(variance(kSample), 4.0 * 8.0 / 7.0, 1e-12);
}

TEST(DescriptiveTest, VarianceNeedsTwoSamples) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(variance(one), std::invalid_argument);
}

TEST(DescriptiveTest, StddevIsSqrtVariance) {
  EXPECT_DOUBLE_EQ(stddev(kSample) * stddev(kSample), variance(kSample));
}

TEST(DescriptiveTest, MinMax) {
  EXPECT_DOUBLE_EQ(min(kSample), 2.0);
  EXPECT_DOUBLE_EQ(max(kSample), 9.0);
}

TEST(DescriptiveTest, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(median(kSample), 4.5);
}

TEST(DescriptiveTest, MedianOddCount) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
}

TEST(DescriptiveTest, QuantileEndpoints) {
  EXPECT_DOUBLE_EQ(quantile(kSample, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(kSample, 1.0), 9.0);
}

TEST(DescriptiveTest, QuantileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 7.5);
}

TEST(DescriptiveTest, QuantileRejectsOutOfRange) {
  EXPECT_THROW(quantile(kSample, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(kSample, 1.1), std::invalid_argument);
}

TEST(DescriptiveTest, QuantileUnsortedInputHandled) {
  const std::vector<double> v = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
}

}  // namespace
}  // namespace vdbench::stats
