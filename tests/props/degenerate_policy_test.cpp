// Property sweep over the degenerate-input policy of core/metrics.h: on
// generated matrices biased toward zero-denominator corners, and on the
// fixed edge matrices of support/propgen.h, every metric value is NaN,
// +inf or inside its declared range; the indeterminate-form vs
// unbounded-ratio distinction holds; the batch plane, a loop over
// compute_all_metrics, reproduces the scalar bits; and the streamed fold
// (src/stream) gives back each edge matrix's counts and metric bits. The
// property binary carries the tsan label so the generator and the metric
// layer stay thread-sanitizer-clean.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "core/batch.h"
#include "core/metrics.h"
#include "stats/arena.h"
#include "stream/record.h"
#include "stream/report_log.h"
#include "support/propgen.h"

namespace vdbench::core {
namespace {

using testsupport::PropGen;

constexpr std::size_t kCases = 256;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

EvalContext context_of(const ConfusionMatrix& cm) {
  EvalContext ctx;
  ctx.cm = cm;
  return ctx;
}

// Aggressively degenerate generator: half the time zero out 1-3 cells on
// top of PropGen's usual quarter-rate single-cell zeroing.
ConfusionMatrix degenerate_confusion(PropGen& gen) {
  ConfusionMatrix cm = gen.confusion(40);
  if (gen.below(1) == 0) {
    const std::uint64_t zeros = 1 + gen.below(2);
    for (std::uint64_t z = 0; z < zeros; ++z) {
      switch (gen.below(3)) {
        case 0: cm.tp = 0; break;
        case 1: cm.fp = 0; break;
        case 2: cm.tn = 0; break;
        default: cm.fn = 0; break;
      }
    }
  }
  return cm;
}

TEST(DegeneratePolicy, ValuesAreNanInfOrInDeclaredRange) {
  PropGen gen = PropGen::from_current_test();
  std::vector<ConfusionMatrix> cases = testsupport::edge_confusions();
  for (std::size_t i = 0; i < kCases; ++i)
    cases.push_back(degenerate_confusion(gen));
  for (const ConfusionMatrix& cm : cases) {
    const EvalContext ctx = context_of(cm);
    for (const MetricId id : all_metrics()) {
      const double v = compute_metric(id, ctx);
      if (std::isnan(v)) continue;          // "no answer" is always legal
      const MetricInfo& info = metric_info(id);
      EXPECT_GE(v, info.range_lo - 1e-12) << info.key << " on "
                                          << cm.to_string();
      EXPECT_LE(v, info.range_hi + 1e-12) << info.key << " on "
                                          << cm.to_string();
      if (std::isinf(v)) {
        // Only the unbounded ratios may diverge, and only to +inf.
        EXPECT_GT(v, 0.0) << info.key << " on " << cm.to_string();
        EXPECT_TRUE(id == MetricId::kLrPlus || id == MetricId::kLrMinus ||
                    id == MetricId::kDiagnosticOddsRatio)
            << info.key << " unexpectedly infinite on " << cm.to_string();
      }
    }
  }
}

TEST(DegeneratePolicy, ZeroDenominatorRatesAreNanNotZero) {
  PropGen gen = PropGen::from_current_test();
  for (std::size_t i = 0; i < kCases; ++i) {
    ConfusionMatrix cm = degenerate_confusion(gen);
    // Rates over an empty class give no answer, never a fake 0 or 1.
    cm.tp = 0;
    cm.fn = 0;  // no actual positives
    const EvalContext ctx = context_of(cm);
    EXPECT_TRUE(std::isnan(compute_metric(MetricId::kRecall, ctx)))
        << cm.to_string();
    EXPECT_TRUE(std::isnan(compute_metric(MetricId::kFnRate, ctx)))
        << cm.to_string();
    cm = degenerate_confusion(gen);
    cm.fp = 0;
    cm.tn = 0;  // no actual negatives
    const EvalContext ctx2 = context_of(cm);
    EXPECT_TRUE(std::isnan(compute_metric(MetricId::kSpecificity, ctx2)))
        << cm.to_string();
    EXPECT_TRUE(std::isnan(compute_metric(MetricId::kFpRate, ctx2)))
        << cm.to_string();
  }
}

TEST(DegeneratePolicy, FFamilyIsZeroWhenPrecisionAndRecallAreBothZero) {
  PropGen gen = PropGen::from_current_test();
  for (std::size_t i = 0; i < kCases; ++i) {
    ConfusionMatrix cm = degenerate_confusion(gen);
    cm.tp = 0;
    cm.fp = 1 + cm.fp;  // at least one report, all wrong
    cm.fn = 1 + cm.fn;  // at least one missed vulnerability
    const EvalContext ctx = context_of(cm);
    for (const MetricId id :
         {MetricId::kFMeasure, MetricId::kFHalf, MetricId::kF2}) {
      EXPECT_EQ(compute_metric(id, ctx), 0.0)
          << metric_info(id).key << " on " << cm.to_string();
    }
  }
}

TEST(DegeneratePolicy, BatchKernelsReproduceScalarBitsOnDegenerateGrid) {
  PropGen gen = PropGen::from_current_test();
  std::vector<EvalContext> contexts;
  contexts.reserve(kCases);
  for (std::size_t i = 0; i < kCases; ++i)
    contexts.push_back(context_of(degenerate_confusion(gen)));

  stats::Arena arena;
  const ConfusionBatch batch = make_batch(contexts, arena);
  const std::span<double> plane =
      arena.allocate_span<double>(contexts.size() * kMetricCount);
  BatchEvaluator(arena).evaluate_all(batch, plane);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    std::vector<double> scalar(kMetricCount);
    compute_all_metrics(contexts[i], scalar);
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      EXPECT_EQ(bits(plane[i * kMetricCount + m]), bits(scalar[m]))
          << contexts[i].cm.to_string() << " metric "
          << metric_info(all_metrics()[m]).key;
    }
  }
}

// One matrix as site records: a TP is a seeded class claimed as itself, a
// FN a seeded class left silent, a FP a claim on a clean site, and a TN a
// clean site with no claim.
stream::ReportChunk records_of(const ConfusionMatrix& cm) {
  stream::ReportChunk chunk;
  const auto add = [&chunk](std::uint64_t n, std::uint8_t truth,
                            std::uint8_t claimed) {
    for (std::uint64_t k = 0; k < n; ++k)
      chunk.records.push_back(
          {.service = 0,
           .site = static_cast<std::uint32_t>(chunk.records.size()),
           .truth = truth,
           .claimed = claimed});
  };
  add(cm.tp, 0, 0);
  add(cm.fn, 0, stream::kNoFinding);
  add(cm.fp, stream::kCleanSite, 0);
  add(cm.tn, stream::kCleanSite, stream::kNoFinding);
  return chunk;
}

// Each edge matrix goes through a report log as one chunk frame (the
// all-zero matrix as a 0-record frame) and is folded back with
// stream::accumulate: same counts, same metric bits.
TEST(DegeneratePolicy, StreamedFoldReproducesEdgeMatrices) {
  const std::vector<ConfusionMatrix> matrices = testsupport::edge_confusions();
  const std::filesystem::path log =
      std::filesystem::temp_directory_path() / "vdprops_edge_fold.vdrlog";
  {
    stream::ReportLogWriter writer(log);
    for (std::size_t i = 0; i < matrices.size(); ++i) {
      writer.begin_segment(i);
      writer.append(records_of(matrices[i]));
    }
    writer.close();
  }

  stream::ReportLogReader reader(log);
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    const std::optional<stream::LogFrame> segment = reader.next();
    ASSERT_TRUE(segment.has_value());
    ASSERT_EQ(segment->kind, stream::LogFrame::Kind::kSegment);
    EXPECT_EQ(segment->segment_tag, i);
    const std::optional<stream::LogFrame> frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->kind, stream::LogFrame::Kind::kChunk);

    ConfusionMatrix folded;
    stream::accumulate(frame->chunk, folded);
    EXPECT_EQ(folded, matrices[i]);
    std::vector<double> want(kMetricCount);
    compute_all_metrics(context_of(matrices[i]), want);
    std::vector<double> got(kMetricCount);
    compute_all_metrics(context_of(folded), got);
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      EXPECT_EQ(bits(got[m]), bits(want[m]))
          << matrices[i].to_string() << " metric "
          << metric_info(all_metrics()[m]).key;
    }
  }
  EXPECT_FALSE(reader.next().has_value());
  std::filesystem::remove(log);
}

}  // namespace
}  // namespace vdbench::core
