#include "core/aggregation.h"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.h"

namespace vdbench::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

EvalContext pool_contexts(std::span<const EvalContext> contexts) {
  if (contexts.empty())
    throw std::invalid_argument("pool_contexts: empty input");
  EvalContext pooled;
  pooled.cost_fn = contexts.front().cost_fn;
  pooled.cost_fp = contexts.front().cost_fp;
  double seconds = 0.0, kloc = 0.0;
  bool have_seconds = true, have_kloc = true;
  double auc_weighted = 0.0, auc_weight = 0.0;
  for (const EvalContext& ctx : contexts) {
    if (ctx.cost_fn != pooled.cost_fn || ctx.cost_fp != pooled.cost_fp)
      throw std::invalid_argument(
          "pool_contexts: contexts use different cost models");
    pooled.cm += ctx.cm;
    if (std::isfinite(ctx.analysis_seconds))
      seconds += ctx.analysis_seconds;
    else
      have_seconds = false;
    if (std::isfinite(ctx.kloc))
      kloc += ctx.kloc;
    else
      have_kloc = false;
    if (std::isfinite(ctx.auc) && ctx.cm.tp > 0) {
      auc_weighted += ctx.auc * static_cast<double>(ctx.cm.tp);
      auc_weight += static_cast<double>(ctx.cm.tp);
    }
  }
  pooled.analysis_seconds = have_seconds ? seconds : kNaN;
  pooled.kloc = have_kloc ? kloc : kNaN;
  pooled.auc = auc_weight > 0.0 ? auc_weighted / auc_weight : kNaN;
  return pooled;
}

double micro_average(MetricId id, std::span<const EvalContext> contexts) {
  return compute_metric(id, pool_contexts(contexts));
}

double macro_average(MetricId id, std::span<const EvalContext> contexts,
                     UndefinedPolicy policy) {
  if (contexts.empty())
    throw std::invalid_argument("macro_average: empty input");
  double acc = 0.0;
  std::size_t defined = 0;
  for (const EvalContext& ctx : contexts) {
    const double v = compute_metric(id, ctx);
    if (!std::isfinite(v)) {
      if (policy == UndefinedPolicy::kPropagate) return kNaN;
      continue;
    }
    acc += v;
    ++defined;
  }
  if (defined == 0) return kNaN;
  return acc / static_cast<double>(defined);
}

AggregateComparison compare_aggregates(MetricId id,
                                       std::span<const EvalContext> contexts) {
  AggregateComparison cmp;
  cmp.metric = id;
  cmp.workloads = contexts.size();
  cmp.micro = micro_average(id, contexts);
  cmp.macro = macro_average(id, contexts, UndefinedPolicy::kSkip);

  std::vector<double> values;
  for (const EvalContext& ctx : contexts) {
    const double v = compute_metric(id, ctx);
    if (std::isfinite(v))
      values.push_back(v);
    else
      ++cmp.undefined_workloads;
  }
  cmp.per_workload_stddev = values.size() >= 2 ? stats::stddev(values) : 0.0;
  return cmp;
}

}  // namespace vdbench::core
