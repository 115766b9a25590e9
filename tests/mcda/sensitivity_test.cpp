#include "mcda/sensitivity.h"

#include <gtest/gtest.h>

#include <cmath>

#include "mcda/weighted_sum.h"

namespace vdbench::mcda {
namespace {

TEST(WeightSensitivityTest, DominantWinnerIsFullyStable) {
  // Alternative 0 wins every criterion: no weight perturbation can flip it.
  const stats::Matrix scores = {{0.9, 0.9, 0.9},
                                {0.5, 0.4, 0.6},
                                {0.2, 0.3, 0.1}};
  const std::vector<double> w = {0.4, 0.4, 0.2};
  stats::Rng rng(1);
  const SensitivityResult r = weight_sensitivity(scores, w, 0.5, 300, rng);
  EXPECT_DOUBLE_EQ(r.top_choice_stability, 1.0);
  EXPECT_DOUBLE_EQ(r.win_share[0], 1.0);
  EXPECT_EQ(r.trials, 300u);
}

TEST(WeightSensitivityTest, KnifeEdgeWinnerIsUnstable) {
  // Two alternatives each winning one criterion with near-equal weights:
  // perturbation flips the winner often.
  const stats::Matrix scores = {{1.0, 0.0}, {0.0, 1.0}};
  const std::vector<double> w = {0.51, 0.49};
  stats::Rng rng(2);
  const SensitivityResult r = weight_sensitivity(scores, w, 0.4, 500, rng);
  EXPECT_LT(r.top_choice_stability, 0.9);
  EXPECT_GT(r.top_choice_stability, 0.1);
  EXPECT_NEAR(r.win_share[0] + r.win_share[1], 1.0, 1e-12);
  EXPECT_GT(r.mean_kendall_distance, 0.0);
}

TEST(WeightSensitivityTest, StabilityDecreasesWithPerturbation) {
  const stats::Matrix scores = {{0.8, 0.2}, {0.4, 0.7}};
  const std::vector<double> w = {0.6, 0.4};
  stats::Rng r1(3), r2(3);
  const double stable_small =
      weight_sensitivity(scores, w, 0.05, 400, r1).top_choice_stability;
  const double stable_large =
      weight_sensitivity(scores, w, 1.0, 400, r2).top_choice_stability;
  EXPECT_GE(stable_small, stable_large);
}

TEST(WeightSensitivityTest, DeterministicGivenSeed) {
  const stats::Matrix scores = {{0.8, 0.2}, {0.4, 0.7}};
  const std::vector<double> w = {0.5, 0.5};
  stats::Rng a(4), b(4);
  const SensitivityResult ra = weight_sensitivity(scores, w, 0.3, 200, a);
  const SensitivityResult rb = weight_sensitivity(scores, w, 0.3, 200, b);
  EXPECT_DOUBLE_EQ(ra.top_choice_stability, rb.top_choice_stability);
  EXPECT_DOUBLE_EQ(ra.mean_kendall_distance, rb.mean_kendall_distance);
}

TEST(WeightSensitivityTest, RejectsBadArguments) {
  const stats::Matrix scores = {{0.5, 0.5}, {0.4, 0.6}};
  const std::vector<double> w = {0.5, 0.5};
  stats::Rng rng(5);
  EXPECT_THROW(weight_sensitivity(scores, w, 0.0, 100, rng),
               std::invalid_argument);
  EXPECT_THROW(weight_sensitivity(scores, w, 0.3, 0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::mcda
