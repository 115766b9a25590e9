#include "core/batch.h"

#include <stdexcept>

namespace vdbench::core {

ConfusionBatch make_batch(std::span<const EvalContext> contexts,
                          stats::Arena& arena) {
  const std::size_t n = contexts.size();
  ConfusionBatch batch;
  batch.size = n;
  std::uint64_t* tp = arena.allocate_span<std::uint64_t>(n).data();
  std::uint64_t* fp = arena.allocate_span<std::uint64_t>(n).data();
  std::uint64_t* tn = arena.allocate_span<std::uint64_t>(n).data();
  std::uint64_t* fn = arena.allocate_span<std::uint64_t>(n).data();
  double* cost_fn = arena.allocate_span<double>(n).data();
  double* cost_fp = arena.allocate_span<double>(n).data();
  double* seconds = arena.allocate_span<double>(n).data();
  double* kloc = arena.allocate_span<double>(n).data();
  double* auc = arena.allocate_span<double>(n).data();
  for (std::size_t i = 0; i < n; ++i) {
    const EvalContext& ctx = contexts[i];
    tp[i] = ctx.cm.tp;
    fp[i] = ctx.cm.fp;
    tn[i] = ctx.cm.tn;
    fn[i] = ctx.cm.fn;
    cost_fn[i] = ctx.cost_fn;
    cost_fp[i] = ctx.cost_fp;
    seconds[i] = ctx.analysis_seconds;
    kloc[i] = ctx.kloc;
    auc[i] = ctx.auc;
  }
  batch.tp = tp;
  batch.fp = fp;
  batch.tn = tn;
  batch.fn = fn;
  batch.cost_fn = cost_fn;
  batch.cost_fp = cost_fp;
  batch.analysis_seconds = seconds;
  batch.kloc = kloc;
  batch.auc = auc;
  return batch;
}

void BatchEvaluator::evaluate_all(const ConfusionBatch& batch,
                                  std::span<double> out) const {
  if (out.size() != batch.size * kMetricCount)
    throw std::invalid_argument(
        "BatchEvaluator::evaluate_all: out.size() != size * kMetricCount");
  for (std::size_t i = 0; i < batch.size; ++i) {
    EvalContext ctx;
    ctx.cm = ConfusionMatrix{
        .tp = batch.tp[i], .fp = batch.fp[i], .tn = batch.tn[i],
        .fn = batch.fn[i]};
    ctx.cost_fn = batch.cost_fn[i];
    ctx.cost_fp = batch.cost_fp[i];
    ctx.analysis_seconds = batch.analysis_seconds[i];
    ctx.kloc = batch.kloc[i];
    ctx.auc = batch.auc[i];
    compute_all_metrics(ctx, out.subspan(i * kMetricCount, kMetricCount));
  }
}

}  // namespace vdbench::core
