// Property-based tests across the whole MCDA suite: invariants that must
// hold on random inputs — dominance consistency (an alternative that is
// at least as good on every criterion never ranks strictly worse), range
// bounds, and cross-method agreement on dominated alternatives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mcda/topsis.h"
#include "mcda/weighted_sum.h"
#include "stats/rng.h"

namespace vdbench::mcda {
namespace {

stats::Matrix random_scores(std::size_t alts, std::size_t crits,
                            stats::Rng& rng) {
  stats::Matrix m(alts, crits, 0.0);
  for (std::size_t a = 0; a < alts; ++a)
    for (std::size_t c = 0; c < crits; ++c)
      m(a, c) = rng.uniform(0.05, 1.0);
  return m;
}

std::vector<double> random_weights(std::size_t crits, stats::Rng& rng) {
  std::vector<double> w(crits);
  for (double& x : w) x = rng.uniform(0.1, 1.0);
  return w;
}

// Plant a dominant alternative at row 0 (element-wise max + epsilon).
void plant_dominant(stats::Matrix& scores) {
  for (std::size_t c = 0; c < scores.cols(); ++c) {
    double hi = 0.0;
    for (std::size_t a = 1; a < scores.rows(); ++a)
      hi = std::max(hi, scores(a, c));
    scores(0, c) = std::min(1.0, hi + 0.01);
  }
}

class McdaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(RandomSeeds, McdaPropertyTest,
                         ::testing::Values(11u, 23u, 37u, 53u, 71u));

TEST_P(McdaPropertyTest, DominantAlternativeWinsEveryMethod) {
  stats::Rng rng(GetParam());
  stats::Matrix scores = random_scores(6, 4, rng);
  plant_dominant(scores);
  const std::vector<double> w = random_weights(4, rng);

  const auto wsm = weighted_sum_scores(scores, w);
  EXPECT_EQ(std::max_element(wsm.begin(), wsm.end()) - wsm.begin(), 0);

  const std::vector<CriterionKind> kinds(4, CriterionKind::kBenefit);
  const auto topsis = topsis_closeness(scores, w, kinds);
  EXPECT_EQ(std::max_element(topsis.begin(), topsis.end()) - topsis.begin(),
            0);
}

TEST_P(McdaPropertyTest, TopsisClosenessBounded) {
  stats::Rng rng(GetParam() + 100);
  const stats::Matrix scores = random_scores(8, 5, rng);
  const std::vector<double> w = random_weights(5, rng);
  const std::vector<CriterionKind> kinds(5, CriterionKind::kBenefit);
  for (const double c : topsis_closeness(scores, w, kinds)) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST_P(McdaPropertyTest, WeightScalingIsIrrelevant) {
  stats::Rng rng(GetParam() + 400);
  const stats::Matrix scores = random_scores(5, 4, rng);
  std::vector<double> w = random_weights(4, rng);
  std::vector<double> w_scaled = w;
  for (double& x : w_scaled) x *= 37.0;
  const auto a = weighted_sum_scores(scores, w);
  const auto b = weighted_sum_scores(scores, w_scaled);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST_P(McdaPropertyTest, MethodsAgreeOnStrictDominanceOrder) {
  // A chain where alternative i strictly dominates i+1 on every
  // criterion: every method must reproduce the chain order.
  stats::Rng rng(GetParam() + 500);
  const std::size_t n = 5;
  stats::Matrix scores(n, 3, 0.0);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t c = 0; c < 3; ++c)
      scores(a, c) =
          0.9 - 0.15 * static_cast<double>(a) + rng.uniform(0.0, 0.03);
  const std::vector<double> w = random_weights(3, rng);
  const auto check_descending = [&](const std::vector<double>& s) {
    for (std::size_t i = 0; i + 1 < n; ++i) EXPECT_GT(s[i], s[i + 1]);
  };
  check_descending(weighted_sum_scores(scores, w));
  const std::vector<CriterionKind> kinds(3, CriterionKind::kBenefit);
  check_descending(topsis_closeness(scores, w, kinds));
}

}  // namespace
}  // namespace vdbench::mcda
