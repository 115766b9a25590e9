#include "core/aggregation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace vdbench::core {
namespace {

EvalContext make_ctx(std::uint64_t tp, std::uint64_t fp, std::uint64_t tn,
                     std::uint64_t fn, double seconds = 10.0,
                     double kloc = 5.0) {
  EvalContext ctx;
  ctx.cm = ConfusionMatrix{.tp = tp, .fp = fp, .tn = tn, .fn = fn};
  ctx.analysis_seconds = seconds;
  ctx.kloc = kloc;
  ctx.auc = 0.8;
  return ctx;
}

TEST(PoolContextsTest, CountsAndOperationalsAdd) {
  const std::vector<EvalContext> ctxs = {make_ctx(10, 5, 80, 5, 10.0, 5.0),
                                         make_ctx(20, 10, 160, 10, 30.0, 15.0)};
  const EvalContext pooled = pool_contexts(ctxs);
  EXPECT_EQ(pooled.cm, (ConfusionMatrix{.tp = 30, .fp = 15, .tn = 240,
                                        .fn = 15}));
  EXPECT_DOUBLE_EQ(pooled.analysis_seconds, 40.0);
  EXPECT_DOUBLE_EQ(pooled.kloc, 20.0);
}

TEST(PoolContextsTest, AucIsTpWeighted) {
  EvalContext a = make_ctx(10, 0, 90, 0);
  a.auc = 1.0;
  EvalContext b = make_ctx(30, 0, 70, 0);
  b.auc = 0.6;
  const EvalContext pooled = pool_contexts(std::vector<EvalContext>{a, b});
  EXPECT_NEAR(pooled.auc, (10.0 * 1.0 + 30.0 * 0.6) / 40.0, 1e-12);
}

TEST(PoolContextsTest, MissingOperationalPropagates) {
  EvalContext a = make_ctx(10, 5, 80, 5);
  EvalContext b = make_ctx(10, 5, 80, 5);
  b.analysis_seconds = std::numeric_limits<double>::quiet_NaN();
  const EvalContext pooled = pool_contexts(std::vector<EvalContext>{a, b});
  EXPECT_TRUE(std::isnan(pooled.analysis_seconds));
  EXPECT_TRUE(std::isfinite(pooled.kloc));
}

TEST(PoolContextsTest, RejectsMixedCostModels) {
  EvalContext a = make_ctx(10, 5, 80, 5);
  EvalContext b = make_ctx(10, 5, 80, 5);
  b.cost_fn = 99.0;
  EXPECT_THROW((void)pool_contexts(std::vector<EvalContext>{a, b}),
               std::invalid_argument);
  EXPECT_THROW((void)pool_contexts(std::vector<EvalContext>{}),
               std::invalid_argument);
}

TEST(MicroMacroTest, AgreeOnHomogeneousWorkloads) {
  const std::vector<EvalContext> ctxs = {make_ctx(10, 5, 80, 5),
                                         make_ctx(10, 5, 80, 5),
                                         make_ctx(10, 5, 80, 5)};
  EXPECT_NEAR(micro_average(MetricId::kPrecision, ctxs),
              macro_average(MetricId::kPrecision, ctxs), 1e-12);
  EXPECT_NEAR(micro_average(MetricId::kRecall, ctxs),
              macro_average(MetricId::kRecall, ctxs), 1e-12);
}

TEST(MicroMacroTest, LargeWorkloadDominatesMicroOnly) {
  // Small workload: perfect precision. Huge workload: poor precision.
  const std::vector<EvalContext> ctxs = {make_ctx(10, 0, 90, 0),
                                         make_ctx(100, 900, 8000, 1000)};
  const double micro = micro_average(MetricId::kPrecision, ctxs);
  const double macro = macro_average(MetricId::kPrecision, ctxs);
  // micro = 110/1010 ~ 0.109; macro = (1.0 + 0.1)/2 = 0.55.
  EXPECT_NEAR(micro, 110.0 / 1010.0, 1e-12);
  EXPECT_NEAR(macro, 0.55, 1e-12);
  EXPECT_GT(macro, micro);
}

TEST(MicroMacroTest, CanDisagreeOnToolOrdering) {
  // Tool A: mediocre everywhere. Tool B: great on the small workload,
  // poor on the big one. Macro prefers B, micro prefers A.
  const std::vector<EvalContext> tool_a = {make_ctx(6, 4, 90, 4),
                                           make_ctx(600, 400, 9000, 400)};
  const std::vector<EvalContext> tool_b = {make_ctx(10, 0, 94, 0),
                                           make_ctx(300, 900, 8500, 700)};
  const double micro_a = micro_average(MetricId::kFMeasure, tool_a);
  const double micro_b = micro_average(MetricId::kFMeasure, tool_b);
  const double macro_a = macro_average(MetricId::kFMeasure, tool_a);
  const double macro_b = macro_average(MetricId::kFMeasure, tool_b);
  EXPECT_GT(micro_a, micro_b);
  EXPECT_GT(macro_b, macro_a);
}

TEST(MicroMacroTest, UndefinedPolicyControlsResult) {
  // Second workload has no predictions: precision undefined there.
  const std::vector<EvalContext> ctxs = {make_ctx(10, 5, 80, 5),
                                         make_ctx(0, 0, 95, 5)};
  const double skipped =
      macro_average(MetricId::kPrecision, ctxs, UndefinedPolicy::kSkip);
  EXPECT_NEAR(skipped, 10.0 / 15.0, 1e-12);
  const double propagated =
      macro_average(MetricId::kPrecision, ctxs, UndefinedPolicy::kPropagate);
  EXPECT_TRUE(std::isnan(propagated));
  // Micro still defined: pooling rescues the undefined workload.
  EXPECT_TRUE(std::isfinite(micro_average(MetricId::kPrecision, ctxs)));
}

TEST(MicroMacroTest, AllUndefinedGivesNaN) {
  const std::vector<EvalContext> ctxs = {make_ctx(0, 0, 95, 5),
                                         make_ctx(0, 0, 90, 10)};
  EXPECT_TRUE(std::isnan(
      macro_average(MetricId::kPrecision, ctxs, UndefinedPolicy::kSkip)));
}

TEST(CompareAggregatesTest, ReportsAllFields) {
  const std::vector<EvalContext> ctxs = {make_ctx(10, 0, 90, 0),
                                         make_ctx(100, 900, 8000, 1000),
                                         make_ctx(0, 0, 95, 5)};
  const AggregateComparison cmp =
      compare_aggregates(MetricId::kPrecision, ctxs);
  EXPECT_EQ(cmp.metric, MetricId::kPrecision);
  EXPECT_EQ(cmp.workloads, 3u);
  EXPECT_EQ(cmp.undefined_workloads, 1u);
  EXPECT_GT(cmp.per_workload_stddev, 0.0);
  EXPECT_TRUE(std::isfinite(cmp.micro));
  EXPECT_TRUE(std::isfinite(cmp.macro));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cmp.macro),
            std::bit_cast<std::uint64_t>(macro_average(
                MetricId::kPrecision, ctxs, UndefinedPolicy::kSkip)));
}

}  // namespace
}  // namespace vdbench::core
