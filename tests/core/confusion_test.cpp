#include "core/confusion.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace vdbench::core {
namespace {

ConfusionMatrix canonical() {
  // 1000 items, prevalence 6%: TP=40, FN=20, FP=10, TN=930.
  return ConfusionMatrix{.tp = 40, .fp = 10, .tn = 930, .fn = 20};
}

TEST(ConfusionTest, Totals) {
  const ConfusionMatrix cm = canonical();
  EXPECT_EQ(cm.total(), 1000u);
  EXPECT_EQ(cm.actual_positives(), 60u);
  EXPECT_EQ(cm.actual_negatives(), 940u);
  EXPECT_EQ(cm.predicted_positives(), 50u);
  EXPECT_EQ(cm.predicted_negatives(), 950u);
}

TEST(ConfusionTest, Rates) {
  const ConfusionMatrix cm = canonical();
  EXPECT_DOUBLE_EQ(cm.tpr(), 40.0 / 60.0);
  EXPECT_DOUBLE_EQ(cm.fnr(), 20.0 / 60.0);
  EXPECT_DOUBLE_EQ(cm.tnr(), 930.0 / 940.0);
  EXPECT_DOUBLE_EQ(cm.fpr(), 10.0 / 940.0);
  EXPECT_DOUBLE_EQ(cm.ppv(), 40.0 / 50.0);
  EXPECT_DOUBLE_EQ(cm.npv(), 930.0 / 950.0);
  EXPECT_DOUBLE_EQ(cm.fdr(), 10.0 / 50.0);
  EXPECT_DOUBLE_EQ(cm.fomr(), 20.0 / 950.0);
  EXPECT_DOUBLE_EQ(cm.prevalence(), 0.06);
}

TEST(ConfusionTest, ComplementaryRatesSumToOne) {
  const ConfusionMatrix cm = canonical();
  EXPECT_DOUBLE_EQ(cm.tpr() + cm.fnr(), 1.0);
  EXPECT_DOUBLE_EQ(cm.tnr() + cm.fpr(), 1.0);
  EXPECT_DOUBLE_EQ(cm.ppv() + cm.fdr(), 1.0);
  EXPECT_DOUBLE_EQ(cm.npv() + cm.fomr(), 1.0);
}

TEST(ConfusionTest, DegenerateRatesAreNaN) {
  const ConfusionMatrix no_positives{.tp = 0, .fp = 5, .tn = 95, .fn = 0};
  EXPECT_TRUE(std::isnan(no_positives.tpr()));
  EXPECT_TRUE(std::isnan(no_positives.fnr()));
  const ConfusionMatrix no_negatives{.tp = 5, .fp = 0, .tn = 0, .fn = 5};
  EXPECT_TRUE(std::isnan(no_negatives.tnr()));
  EXPECT_TRUE(std::isnan(no_negatives.fpr()));
  const ConfusionMatrix no_predictions{.tp = 0, .fp = 0, .tn = 50, .fn = 50};
  EXPECT_TRUE(std::isnan(no_predictions.ppv()));
  const ConfusionMatrix all_predicted{.tp = 50, .fp = 50, .tn = 0, .fn = 0};
  EXPECT_TRUE(std::isnan(all_predicted.npv()));
}

TEST(ConfusionTest, IsDefinedHelper) {
  EXPECT_TRUE(is_defined(0.0));
  EXPECT_TRUE(is_defined(-1.5));
  EXPECT_FALSE(is_defined(std::nan("")));
  EXPECT_FALSE(is_defined(std::numeric_limits<double>::infinity()));
}

TEST(ConfusionTest, Addition) {
  const ConfusionMatrix a{.tp = 1, .fp = 2, .tn = 3, .fn = 4};
  const ConfusionMatrix b{.tp = 10, .fp = 20, .tn = 30, .fn = 40};
  const ConfusionMatrix sum = a + b;
  EXPECT_EQ(sum, (ConfusionMatrix{.tp = 11, .fp = 22, .tn = 33, .fn = 44}));
  ConfusionMatrix c = a;
  c += b;
  EXPECT_EQ(c, sum);
}

TEST(ConfusionTest, ToStringFormat) {
  const ConfusionMatrix cm{.tp = 1, .fp = 2, .tn = 3, .fn = 4};
  EXPECT_EQ(cm.to_string(), "TP=1 FP=2 TN=3 FN=4");
}

TEST(ExpectedConfusionTest, ExactOnRoundNumbers) {
  const ConfusionMatrix cm = expected_confusion(0.8, 0.1, 0.2, 1000);
  EXPECT_EQ(cm.tp, 160u);
  EXPECT_EQ(cm.fn, 40u);
  EXPECT_EQ(cm.fp, 80u);
  EXPECT_EQ(cm.tn, 720u);
  EXPECT_EQ(cm.total(), 1000u);
}

TEST(ExpectedConfusionTest, TotalAlwaysPreserved) {
  for (const double sens : {0.0, 0.33, 0.77, 1.0}) {
    for (const double fallout : {0.0, 0.09, 1.0}) {
      for (const double prev : {0.001, 0.5, 0.999}) {
        const ConfusionMatrix cm =
            expected_confusion(sens, fallout, prev, 997);
        EXPECT_EQ(cm.total(), 997u)
            << sens << " " << fallout << " " << prev;
      }
    }
  }
}

TEST(ExpectedConfusionTest, PerfectDetector) {
  const ConfusionMatrix cm = expected_confusion(1.0, 0.0, 0.1, 1000);
  EXPECT_EQ(cm.tp, 100u);
  EXPECT_EQ(cm.fn, 0u);
  EXPECT_EQ(cm.fp, 0u);
  EXPECT_EQ(cm.tn, 900u);
}

TEST(ExpectedConfusionTest, RejectsBadArguments) {
  EXPECT_THROW(expected_confusion(-0.1, 0.1, 0.1, 100),
               std::invalid_argument);
  EXPECT_THROW(expected_confusion(0.5, 1.1, 0.1, 100), std::invalid_argument);
  EXPECT_THROW(expected_confusion(0.5, 0.1, 2.0, 100), std::invalid_argument);
  EXPECT_THROW(expected_confusion(0.5, 0.1, 0.1, 0), std::invalid_argument);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(expected_confusion(kNaN, 0.1, 0.1, 100), std::invalid_argument);
  EXPECT_THROW(expected_confusion(0.5, kNaN, 0.1, 100), std::invalid_argument);
  EXPECT_THROW(expected_confusion(0.5, 0.1, kNaN, 100), std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::core
