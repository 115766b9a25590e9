// BatchEvaluator contract tests. evaluate_all is a loop over
// compute_all_metrics, so these check that make_batch gathers every field
// and that the plane's rows land where the layout says, bit for bit against
// the scalar path over random, degenerate and edge grids. Also: the
// documented degenerate-value policy, overflow behaviour at billion-count
// scale, and the zero-allocation guarantee of a warmed-up arena.
#include "core/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/metrics.h"
#include "core/sampling.h"
#include "stats/arena.h"
#include "stats/rng.h"
#include "support/propgen.h"

// Global-allocation counter for the zero-allocation assertion. Sanitizer
// builds keep the default operator new (ASan/TSan interpose their own and
// must see every call), so that test is compiled out there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VDBENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VDBENCH_COUNT_ALLOCS 0
#else
#define VDBENCH_COUNT_ALLOCS 1
#endif
#else
#define VDBENCH_COUNT_ALLOCS 1
#endif

#if VDBENCH_COUNT_ALLOCS
// GCC pairs inlined default-new call sites with the replacement delete and
// warns; the replacement pair below is malloc/free-consistent throughout.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace vdbench::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Random context with deliberately frequent zero cells so degenerate
// denominators appear throughout the grid, plus occasional missing
// operational measurements and varied costs.
EvalContext random_context(stats::Rng& rng) {
  const auto cell = [&](std::int64_t hi) -> std::uint64_t {
    if (rng.bernoulli(0.15)) return 0;
    return static_cast<std::uint64_t>(rng.uniform_int(0, hi));
  };
  EvalContext ctx = make_abstract_context(
      ConfusionMatrix{.tp = cell(400),
                      .fp = cell(400),
                      .tn = cell(4000),
                      .fn = cell(400)},
      /*cost_fn=*/rng.bernoulli(0.5) ? 5.0 : 1.0,
      /*cost_fp=*/1.0);
  if (rng.bernoulli(0.1)) ctx.auc = kNaN;
  if (rng.bernoulli(0.1)) {
    ctx.analysis_seconds = kNaN;
    ctx.kloc = kNaN;
  }
  return ctx;
}

// Hand-picked degenerate corners: every zero-denominator family in the
// policy table of core/metrics.h, with and without operational data, plus
// the fixed edge matrices (all 0/1 cells, single-class benchmarks).
std::vector<EvalContext> degenerate_corners() {
  std::vector<EvalContext> out;
  const auto add = [&](std::uint64_t tp, std::uint64_t fp, std::uint64_t tn,
                       std::uint64_t fn) {
    EvalContext bare;  // missing operational data (NaN seconds/kloc/auc)
    bare.cm = ConfusionMatrix{.tp = tp, .fp = fp, .tn = tn, .fn = fn};
    out.push_back(bare);
    out.push_back(make_abstract_context(bare.cm, 5.0, 1.0));
  };
  for (const ConfusionMatrix& cm : testsupport::edge_confusions())
    add(cm.tp, cm.fp, cm.tn, cm.fn);
  add(5, 0, 5, 0);                          // perfect detector
  add(0, 5, 0, 5);                          // perfectly wrong
  add(5, 5, 0, 0);                          // everything flagged
  add(0, 0, 5, 5);                          // nothing flagged
  add(5, 0, 0, 5);                          // no negatives answered
  add(0, 5, 5, 0);                          // no positives answered
  add(3, 0, 7, 2);                          // FPR == 0 < TPR: LR+ = +inf
  add(3, 4, 0, 2);                          // TNR == 0 < FNR: LR- = +inf
  add(3, 4, 0, 0);                          // TNR == FNR == 0: LR- = NaN
  add(5, 0, 5, 1);                          // FP == 0: DOR = +inf
  add(5, 1, 5, 0);                          // FN == 0: DOR = +inf
  EvalContext zero_cost;                    // all-zero worst case for NEC
  zero_cost.cm = ConfusionMatrix{.tp = 2, .fp = 3, .tn = 4, .fn = 5};
  zero_cost.cost_fn = 0.0;
  zero_cost.cost_fp = 0.0;
  out.push_back(zero_cost);
  return out;
}

void expect_batch_matches_scalar(std::span<const EvalContext> contexts) {
  stats::Arena arena;
  const ConfusionBatch batch = make_batch(contexts, arena);
  const BatchEvaluator evaluator(arena);

  // Full plane vs per-context scalar rows.
  const std::span<double> plane =
      arena.allocate_span<double>(contexts.size() * kMetricCount);
  evaluator.evaluate_all(batch, plane);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    std::vector<double> scalar(kMetricCount);
    compute_all_metrics(contexts[i], scalar);
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      EXPECT_EQ(bits(plane[i * kMetricCount + m]), bits(scalar[m]))
          << "context " << i << " (" << contexts[i].cm.to_string()
          << ") metric " << metric_info(all_metrics()[m]).key << ": batch "
          << plane[i * kMetricCount + m] << " vs scalar " << scalar[m];
    }
  }
}

TEST(BatchEvaluatorTest, MatchesScalarBitwiseOnRandomGrid) {
  stats::Rng rng(20150622);
  std::vector<EvalContext> contexts;
  contexts.reserve(512);
  for (std::size_t i = 0; i < 512; ++i) contexts.push_back(random_context(rng));
  expect_batch_matches_scalar(contexts);
}

TEST(BatchEvaluatorTest, MatchesScalarBitwiseOnDegenerateCorners) {
  expect_batch_matches_scalar(degenerate_corners());
}

TEST(BatchEvaluatorTest, DegeneratePolicySpotChecks) {
  const auto metric_of = [](std::uint64_t tp, std::uint64_t fp,
                            std::uint64_t tn, std::uint64_t fn, MetricId id) {
    EvalContext ctx;
    ctx.cm = ConfusionMatrix{.tp = tp, .fp = fp, .tn = tn, .fn = fn};
    return compute_metric(id, ctx);
  };
  // Unbounded ratios: positive numerator over a zero denominator is +inf.
  EXPECT_EQ(metric_of(3, 0, 7, 2, MetricId::kLrPlus), kInf);
  EXPECT_EQ(metric_of(3, 4, 0, 2, MetricId::kLrMinus), kInf);
  EXPECT_EQ(metric_of(5, 0, 5, 1, MetricId::kDiagnosticOddsRatio), kInf);
  // Indeterminate 0/0 forms are NaN.
  EXPECT_TRUE(std::isnan(metric_of(0, 0, 0, 0, MetricId::kAccuracy)));
  EXPECT_TRUE(std::isnan(metric_of(0, 0, 5, 5, MetricId::kPrecision)));
  EXPECT_TRUE(std::isnan(metric_of(0, 5, 5, 0, MetricId::kRecall)));
  EXPECT_TRUE(std::isnan(metric_of(3, 4, 0, 0, MetricId::kLrMinus)));
  EXPECT_TRUE(std::isnan(metric_of(5, 5, 0, 0, MetricId::kMcc)));
  // F-family with P == R == 0 is a legitimate worst score, not undefined.
  EXPECT_EQ(metric_of(0, 5, 0, 5, MetricId::kFMeasure), 0.0);
  EXPECT_EQ(metric_of(0, 5, 0, 5, MetricId::kFHalf), 0.0);
  EXPECT_EQ(metric_of(0, 5, 0, 5, MetricId::kF2), 0.0);
}

TEST(BatchEvaluatorTest, RejectsMismatchedOutputSizes) {
  const std::vector<EvalContext> contexts(3);
  stats::Arena arena;
  const ConfusionBatch batch = make_batch(contexts, arena);
  const BatchEvaluator evaluator(arena);
  std::vector<double> wrong(4);
  EXPECT_THROW(evaluator.evaluate_all(batch, wrong), std::invalid_argument);
}

TEST(BatchEvaluatorTest, EmptyBatchIsANoOp) {
  stats::Arena arena;
  const ConfusionBatch batch =
      make_batch(std::span<const EvalContext>{}, arena);
  const BatchEvaluator evaluator(arena);
  evaluator.evaluate_all(batch, {});
}

// EvalContext counts are 64-bit and every formula promotes to double (or
// sums in uint64) before arithmetic: billion-count matrices — far past the
// 10^7-site scale of the largest configured study, and past 32-bit
// overflow — must produce exact, finite values, identical in both paths.
TEST(BatchEvaluatorTest, BillionCountMatricesDoNotOverflow) {
  constexpr std::uint64_t kBillion = 3'000'000'000ULL;  // > 2^31
  EvalContext big;
  big.cm = ConfusionMatrix{
      .tp = kBillion, .fp = kBillion / 3, .tn = kBillion, .fn = kBillion / 3};
  const EvalContext balanced{.cm = ConfusionMatrix{.tp = kBillion,
                                                   .fp = kBillion,
                                                   .tn = kBillion,
                                                   .fn = kBillion}};
  // Exact expectations on the balanced matrix: total 12e9 < 2^53, so the
  // double arithmetic is exact.
  EXPECT_EQ(compute_metric(MetricId::kAccuracy, balanced), 0.5);
  EXPECT_EQ(compute_metric(MetricId::kPrevalence, balanced), 0.5);
  EXPECT_EQ(compute_metric(MetricId::kPrecision, balanced), 0.5);
  EXPECT_EQ(compute_metric(MetricId::kMcc, balanced), 0.0);
  for (const MetricId id :
       {MetricId::kMcc, MetricId::kKappa, MetricId::kAccuracy,
        MetricId::kDiagnosticOddsRatio, MetricId::kFMeasure,
        MetricId::kBalancedAccuracy}) {
    const double v = compute_metric(id, big);
    EXPECT_TRUE(std::isfinite(v)) << metric_info(id).key;
  }
  EXPECT_NEAR(compute_metric(MetricId::kAccuracy, big), 0.75, 1e-12);
  const std::vector<EvalContext> contexts = {big, balanced};
  expect_batch_matches_scalar(contexts);
}

#if VDBENCH_COUNT_ALLOCS
TEST(BatchEvaluatorTest, WarmedUpBatchPathDoesNotTouchTheHeap) {
  stats::Rng rng(11);
  std::vector<EvalContext> contexts;
  contexts.reserve(256);
  for (std::size_t i = 0; i < 256; ++i) contexts.push_back(random_context(rng));

  stats::Arena arena;
  // Warm-up pass sizes the arena blocks.
  {
    const ConfusionBatch batch = make_batch(contexts, arena);
    const BatchEvaluator evaluator(arena);
    const std::span<double> plane =
        arena.allocate_span<double>(contexts.size() * kMetricCount);
    evaluator.evaluate_all(batch, plane);
  }
  arena.reset();

  const std::uint64_t allocs_before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int repeat = 0; repeat < 10; ++repeat) {
    const ConfusionBatch batch = make_batch(contexts, arena);
    const BatchEvaluator evaluator(arena);
    const std::span<double> plane =
        arena.allocate_span<double>(contexts.size() * kMetricCount);
    evaluator.evaluate_all(batch, plane);
    arena.reset();
  }
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), allocs_before)
      << "warmed-up make_batch/evaluate_all must be allocation-free";
}
#endif

}  // namespace
}  // namespace vdbench::core
