#include "stats/rank.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "stats/rng.h"

namespace vdbench::stats {
namespace {

TEST(RankTest, OrderDescendingStableOnTies) {
  const std::vector<double> xs = {1.0, 3.0, 3.0, 2.0};
  const std::vector<std::size_t> expected = {1, 2, 3, 0};
  EXPECT_EQ(order_descending(xs), expected);
}

TEST(RankTest, KendallIdenticalOrderIsOne) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0, 8.0};
  EXPECT_DOUBLE_EQ(kendall_tau(xs, ys), 1.0);
}

TEST(RankTest, KendallReversedOrderIsMinusOne) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(kendall_tau(xs, ys), -1.0);
}

TEST(RankTest, KendallKnownValue) {
  // One discordant pair out of 6: tau = (5-1)/6.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {1.0, 2.0, 4.0, 3.0};
  EXPECT_NEAR(kendall_tau(xs, ys), 4.0 / 6.0, 1e-12);
}

TEST(RankTest, KendallSymmetric) {
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.5, 5.0};
  const std::vector<double> ys = {2.0, 7.0, 1.0, 8.0, 2.5};
  EXPECT_DOUBLE_EQ(kendall_tau(xs, ys), kendall_tau(ys, xs));
}

TEST(RankTest, KendallTieAware) {
  const std::vector<double> xs = {1.0, 2.0, 2.0, 3.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0, 4.0};
  const double tau = kendall_tau(xs, ys);
  EXPECT_GT(tau, 0.8);
  EXPECT_LT(tau, 1.0);  // ties reduce tau-b below 1
}

TEST(RankTest, KendallThrowsWhenEntirelyTied) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_THROW(kendall_tau(xs, ys), std::invalid_argument);
}

TEST(RankTest, KendallBoundedOnRandomData) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs(10), ys(10);
    for (int i = 0; i < 10; ++i) {
      xs[i] = rng.uniform();
      ys[i] = rng.uniform();
    }
    const double tau = kendall_tau(xs, ys);
    EXPECT_GE(tau, -1.0);
    EXPECT_LE(tau, 1.0);
  }
}

TEST(RankTest, TopKOverlapFullAndEmpty) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> zs = {4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(top_k_overlap(xs, ys, 2), 1.0);
  EXPECT_DOUBLE_EQ(top_k_overlap(xs, zs, 2), 0.0);
}

TEST(RankTest, TopKOverlapPartial) {
  const std::vector<double> xs = {4.0, 3.0, 2.0, 1.0};
  const std::vector<double> ys = {4.0, 1.0, 3.0, 2.0};
  // top-2 of xs: {0,1}; top-2 of ys: {0,2} -> overlap 1/2.
  EXPECT_DOUBLE_EQ(top_k_overlap(xs, ys, 2), 0.5);
}

TEST(RankTest, TopKOverlapRejectsBadK) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(top_k_overlap(xs, xs, 0), std::invalid_argument);
  EXPECT_THROW(top_k_overlap(xs, xs, 3), std::invalid_argument);
}

TEST(RankTest, RejectsNonFiniteInput) {
  // Regression: NaN input used to reach the raw </> sort comparators,
  // violating strict weak ordering and leaving stable_sort unspecified
  // (reachable in practice — undefined metrics produce NaN utilities).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_nan = {1.0, nan, 3.0};
  const std::vector<double> with_inf = {1.0, inf, 3.0};
  const std::vector<double> with_neg_inf = {1.0, -inf, 3.0};
  const std::vector<double> clean = {1.0, 2.0, 3.0};

  EXPECT_THROW(order_descending(with_nan), std::invalid_argument);
  EXPECT_THROW(kendall_tau(with_nan, clean), std::invalid_argument);
  EXPECT_THROW(kendall_tau(clean, with_neg_inf), std::invalid_argument);
  EXPECT_THROW(top_k_overlap(with_nan, clean, 2), std::invalid_argument);
  EXPECT_THROW(top_k_overlap(clean, with_inf, 2), std::invalid_argument);
  EXPECT_THROW(same_top_choice(with_nan, clean), std::invalid_argument);
}

TEST(RankTest, AllNanInputStillThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> nans = {nan, nan, nan};
  EXPECT_THROW(kendall_tau(nans, nans), std::invalid_argument);
}

TEST(RankTest, SameTopChoice) {
  const std::vector<double> xs = {1.0, 5.0, 3.0};
  const std::vector<double> ys = {0.1, 0.9, 0.5};
  const std::vector<double> zs = {9.0, 1.0, 2.0};
  EXPECT_TRUE(same_top_choice(xs, ys));
  EXPECT_FALSE(same_top_choice(xs, zs));
}

}  // namespace
}  // namespace vdbench::stats
