#include "mcda/aggregate.h"

#include <gtest/gtest.h>

#include <vector>

namespace vdbench::mcda {
namespace {

using Ranking = std::vector<std::size_t>;

TEST(BordaTest, SingleRanking) {
  const std::vector<Ranking> rankings = {{2, 0, 1}};
  const std::vector<double> scores = borda_scores(rankings);
  EXPECT_DOUBLE_EQ(scores[2], 2.0);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
}

TEST(BordaTest, MajorityWins) {
  const std::vector<Ranking> rankings = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2}};
  const std::vector<double> scores = borda_scores(rankings);
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[1], scores[2]);
}

TEST(BordaTest, RejectsNonPermutation) {
  const std::vector<Ranking> dup = {{0, 0, 1}};
  const std::vector<Ranking> out_of_range = {{0, 1, 3}};
  const std::vector<Ranking> mismatch = {{0, 1, 2}, {0, 1}};
  EXPECT_THROW(borda_scores(dup), std::invalid_argument);
  EXPECT_THROW(borda_scores(out_of_range), std::invalid_argument);
  EXPECT_THROW(borda_scores(mismatch), std::invalid_argument);
  EXPECT_THROW(borda_scores(std::vector<Ranking>{}), std::invalid_argument);
}

TEST(RankingFromScoresTest, DescendingWithStableTies) {
  const std::vector<double> scores = {1.0, 3.0, 3.0, 0.5};
  const Ranking expected = {1, 2, 0, 3};
  EXPECT_EQ(ranking_from_scores(scores), expected);
}

TEST(KendallDistanceTest, IdenticalIsZero) {
  const Ranking a = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(kendall_distance(a, a), 0.0);
}

TEST(KendallDistanceTest, ReversedIsOne) {
  const Ranking a = {0, 1, 2, 3};
  const Ranking b = {3, 2, 1, 0};
  EXPECT_DOUBLE_EQ(kendall_distance(a, b), 1.0);
}

TEST(KendallDistanceTest, SingleSwap) {
  const Ranking a = {0, 1, 2, 3};
  const Ranking b = {0, 1, 3, 2};
  EXPECT_DOUBLE_EQ(kendall_distance(a, b), 1.0 / 6.0);
}

TEST(KendallDistanceTest, Symmetric) {
  const Ranking a = {2, 0, 3, 1};
  const Ranking b = {1, 3, 0, 2};
  EXPECT_DOUBLE_EQ(kendall_distance(a, b), kendall_distance(b, a));
}

TEST(KendallDistanceTest, RejectsTiny) {
  const Ranking one = {0};
  EXPECT_THROW((void)kendall_distance(one, one), std::invalid_argument);
}

TEST(AggregationPipelineTest, BordaConsensusOfNoisyCopies) {
  // Three near-copies of the same order must aggregate back to it.
  const std::vector<Ranking> rankings = {
      {0, 1, 2, 3, 4}, {0, 2, 1, 3, 4}, {1, 0, 2, 3, 4}};
  const Ranking consensus = ranking_from_scores(borda_scores(rankings));
  EXPECT_EQ(consensus, (Ranking{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace vdbench::mcda
