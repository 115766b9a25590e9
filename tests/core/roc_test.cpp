#include "core/roc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/hypothesis.h"
#include "stats/rng.h"

namespace vdbench::core {
namespace {

std::vector<ScoredItem> perfect_separation() {
  return {{0.9, true}, {0.8, true}, {0.7, true},
          {0.3, false}, {0.2, false}, {0.1, false}};
}

TEST(RocCurveTest, PerfectSeparationAucIsOne) {
  const RocCurve roc{perfect_separation()};
  EXPECT_DOUBLE_EQ(roc.auc(), 1.0);
  EXPECT_EQ(roc.positives(), 3u);
  EXPECT_EQ(roc.negatives(), 3u);
}

TEST(RocCurveTest, ReversedSeparationAucIsZero) {
  const std::vector<ScoredItem> items = {{0.9, false}, {0.8, false},
                                         {0.2, true},  {0.1, true}};
  EXPECT_DOUBLE_EQ(RocCurve{items}.auc(), 0.0);
}

TEST(RocCurveTest, AllTiedScoresGiveHalf) {
  const std::vector<ScoredItem> items = {{0.5, true}, {0.5, true},
                                         {0.5, false}, {0.5, false}};
  EXPECT_DOUBLE_EQ(RocCurve{items}.auc(), 0.5);
}

TEST(RocCurveTest, HandComputedAucWithInterleaving) {
  // positives at 0.9, 0.4; negatives at 0.6, 0.1.
  // pairs: (0.9>0.6)=1, (0.9>0.1)=1, (0.4<0.6)=0, (0.4>0.1)=1 -> 3/4.
  const std::vector<ScoredItem> items = {{0.9, true}, {0.4, true},
                                         {0.6, false}, {0.1, false}};
  EXPECT_DOUBLE_EQ(RocCurve{items}.auc(), 0.75);
}

TEST(RocCurveTest, PointsTraverseFromOriginToCorner) {
  const RocCurve roc{perfect_separation()};
  const auto& pts = roc.points();
  EXPECT_DOUBLE_EQ(pts.front().tpr, 0.0);
  EXPECT_DOUBLE_EQ(pts.front().fpr, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().tpr, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().fpr, 1.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].tpr, pts[i - 1].tpr);
    EXPECT_GE(pts[i].fpr, pts[i - 1].fpr);
  }
}

TEST(RocCurveTest, ConfusionCountsConsistentAtEveryPoint) {
  stats::Rng rng(1);
  std::vector<ScoredItem> items;
  for (int i = 0; i < 200; ++i)
    items.push_back({rng.uniform(), rng.bernoulli(0.3)});
  const RocCurve roc{items};
  for (const RocPoint& p : roc.points()) {
    EXPECT_EQ(p.tp + p.fn, roc.positives());
    EXPECT_EQ(p.fp + p.tn, roc.negatives());
  }
}

TEST(RocCurveTest, RequiresBothClasses) {
  const std::vector<ScoredItem> only_pos = {{0.5, true}, {0.6, true}};
  const std::vector<ScoredItem> only_neg = {{0.5, false}};
  EXPECT_THROW(RocCurve{only_pos}, std::invalid_argument);
  EXPECT_THROW(RocCurve{only_neg}, std::invalid_argument);
}

TEST(RocCurveTest, MatchesBinormalTheory) {
  // Scores ~ N(1,1) for positives, N(0,1) for negatives: AUC should
  // approach Phi(1/sqrt(2)).
  stats::Rng rng(2);
  std::vector<ScoredItem> items;
  for (int i = 0; i < 4000; ++i) {
    const bool positive = i % 2 == 0;
    items.push_back({rng.normal(positive ? 1.0 : 0.0, 1.0), positive});
  }
  EXPECT_NEAR(RocCurve{items}.auc(),
              stats::normal_cdf(1.0 / std::sqrt(2.0)), 0.02);
}

TEST(OptimalPointTest, MissHeavyCostsPushThresholdDown) {
  stats::Rng rng(3);
  std::vector<ScoredItem> items;
  for (int i = 0; i < 2000; ++i) {
    const bool positive = rng.bernoulli(0.2);
    items.push_back({rng.normal(positive ? 1.2 : 0.0, 1.0), positive});
  }
  const RocCurve roc{items};
  const RocPoint& recall_heavy = roc.optimal_point(20.0, 1.0);
  const RocPoint& precision_heavy = roc.optimal_point(1.0, 20.0);
  EXPECT_LT(recall_heavy.threshold, precision_heavy.threshold);
  EXPECT_GT(recall_heavy.tpr, precision_heavy.tpr);
  EXPECT_GT(recall_heavy.fpr, precision_heavy.fpr);
}

TEST(OptimalPointTest, RejectsNegativeCosts) {
  const RocCurve roc{perfect_separation()};
  EXPECT_THROW((void)roc.optimal_point(-1.0, 1.0), std::invalid_argument);
}

TEST(YoudenPointTest, PerfectSeparationHitsCorner) {
  const RocCurve roc{perfect_separation()};
  const RocPoint& p = roc.youden_point();
  EXPECT_DOUBLE_EQ(p.tpr, 1.0);
  EXPECT_DOUBLE_EQ(p.fpr, 0.0);
}

TEST(TprAtFprTest, InterpolatesAndClamps) {
  const RocCurve roc{perfect_separation()};
  EXPECT_DOUBLE_EQ(roc.tpr_at_fpr(0.0), 1.0);  // perfect curve
  EXPECT_DOUBLE_EQ(roc.tpr_at_fpr(1.0), 1.0);
  EXPECT_THROW((void)roc.tpr_at_fpr(-0.1), std::invalid_argument);
  EXPECT_THROW((void)roc.tpr_at_fpr(1.5), std::invalid_argument);
}

TEST(TprAtFprTest, MonotoneInBudget) {
  stats::Rng rng(4);
  std::vector<ScoredItem> items;
  for (int i = 0; i < 500; ++i) {
    const bool positive = rng.bernoulli(0.4);
    items.push_back({rng.normal(positive ? 0.8 : 0.0, 1.0), positive});
  }
  const RocCurve roc{items};
  double last = 0.0;
  for (const double budget : {0.01, 0.05, 0.1, 0.3, 0.7, 1.0}) {
    const double tpr = roc.tpr_at_fpr(budget);
    EXPECT_GE(tpr, last);
    last = tpr;
  }
}

}  // namespace
}  // namespace vdbench::core
