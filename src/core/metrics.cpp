#include "core/metrics.h"

#include <array>
#include <cmath>
#include <stdexcept>

namespace vdbench::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Catalogue in canonical order. Must match the MetricId enum order; a
// static_assert below and a registry test enforce the correspondence.
constexpr std::array<MetricInfo, kMetricCount> kCatalogue = {{
    {MetricId::kPrecision, "precision", "Precision (PPV)", "TP/(TP+FP)",
     MetricCategory::kInformationRetrieval, Direction::kHigherBetter, 0.0, 1.0,
     /*prevalence_invariant=*/false, /*needs_tn=*/false, /*cost_aware=*/false,
     /*interpretability=*/1.0, /*collection_ease=*/1.0},
    {MetricId::kRecall, "recall", "Recall (sensitivity, TPR)", "TP/(TP+FN)",
     MetricCategory::kInformationRetrieval, Direction::kHigherBetter, 0.0, 1.0,
     true, false, false, 1.0, 1.0},
    {MetricId::kFMeasure, "f1", "F-measure (F1)", "2*P*R/(P+R)",
     MetricCategory::kInformationRetrieval, Direction::kHigherBetter, 0.0, 1.0,
     false, false, false, 0.7, 1.0},
    {MetricId::kFHalf, "f05", "F0.5 (precision-weighted)",
     "(1+0.25)*P*R/(0.25*P+R)", MetricCategory::kInformationRetrieval,
     Direction::kHigherBetter, 0.0, 1.0, false, false, false, 0.6, 1.0},
    {MetricId::kF2, "f2", "F2 (recall-weighted)", "(1+4)*P*R/(4*P+R)",
     MetricCategory::kInformationRetrieval, Direction::kHigherBetter, 0.0, 1.0,
     false, false, false, 0.6, 1.0},
    {MetricId::kJaccard, "jaccard", "Jaccard index (CSI)", "TP/(TP+FP+FN)",
     MetricCategory::kInformationRetrieval, Direction::kHigherBetter, 0.0, 1.0,
     false, false, false, 0.8, 1.0},
    {MetricId::kFowlkesMallows, "fowlkes_mallows", "Fowlkes-Mallows (G-measure)",
     "sqrt(PPV*TPR)", MetricCategory::kInformationRetrieval,
     Direction::kHigherBetter, 0.0, 1.0, false, false, false, 0.5, 1.0},

    {MetricId::kSpecificity, "specificity", "Specificity (TNR)", "TN/(TN+FP)",
     MetricCategory::kDiagnostic, Direction::kHigherBetter, 0.0, 1.0, true,
     true, false, 0.9, 0.5},
    {MetricId::kNpv, "npv", "Negative predictive value", "TN/(TN+FN)",
     MetricCategory::kDiagnostic, Direction::kHigherBetter, 0.0, 1.0, false,
     true, false, 0.7, 0.5},
    {MetricId::kFpRate, "fpr", "False-positive rate (fallout)", "FP/(FP+TN)",
     MetricCategory::kDiagnostic, Direction::kLowerBetter, 0.0, 1.0, true,
     true, false, 0.9, 0.5},
    {MetricId::kFnRate, "fnr", "False-negative rate (miss rate)", "FN/(TP+FN)",
     MetricCategory::kDiagnostic, Direction::kLowerBetter, 0.0, 1.0, true,
     false, false, 0.9, 1.0},
    {MetricId::kFdRate, "fdr", "False-discovery rate", "FP/(TP+FP)",
     MetricCategory::kDiagnostic, Direction::kLowerBetter, 0.0, 1.0, false,
     false, false, 0.8, 1.0},
    {MetricId::kFoRate, "for", "False-omission rate", "FN/(FN+TN)",
     MetricCategory::kDiagnostic, Direction::kLowerBetter, 0.0, 1.0, false,
     true, false, 0.6, 0.5},
    {MetricId::kLrPlus, "lr_plus", "Positive likelihood ratio", "TPR/FPR",
     MetricCategory::kDiagnostic, Direction::kHigherBetter, 0.0, kInf, true,
     true, false, 0.4, 0.5},
    {MetricId::kLrMinus, "lr_minus", "Negative likelihood ratio", "FNR/TNR",
     MetricCategory::kDiagnostic, Direction::kLowerBetter, 0.0, kInf, true,
     true, false, 0.4, 0.5},
    {MetricId::kDiagnosticOddsRatio, "dor", "Diagnostic odds ratio",
     "(TP*TN)/(FP*FN)", MetricCategory::kDiagnostic, Direction::kHigherBetter,
     0.0, kInf, true, true, false, 0.3, 0.5},
    {MetricId::kPrevalenceThreshold, "pt", "Prevalence threshold",
     "sqrt(FPR)/(sqrt(TPR)+sqrt(FPR))", MetricCategory::kDiagnostic,
     Direction::kLowerBetter, 0.0, 1.0, true, true, false, 0.2, 0.5},

    {MetricId::kAccuracy, "accuracy", "Accuracy", "(TP+TN)/N",
     MetricCategory::kAggregate, Direction::kHigherBetter, 0.0, 1.0, false,
     true, false, 1.0, 0.5},
    {MetricId::kErrorRate, "error_rate", "Error rate", "(FP+FN)/N",
     MetricCategory::kAggregate, Direction::kLowerBetter, 0.0, 1.0, false,
     true, false, 1.0, 0.5},
    {MetricId::kBalancedAccuracy, "balanced_accuracy", "Balanced accuracy",
     "(TPR+TNR)/2", MetricCategory::kAggregate, Direction::kHigherBetter, 0.0,
     1.0, true, true, false, 0.8, 0.5},
    {MetricId::kGMean, "gmean", "Geometric mean (TPR,TNR)", "sqrt(TPR*TNR)",
     MetricCategory::kAggregate, Direction::kHigherBetter, 0.0, 1.0, true,
     true, false, 0.5, 0.5},
    {MetricId::kMcc, "mcc", "Matthews correlation coefficient",
     "(TP*TN-FP*FN)/sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN))",
     MetricCategory::kAggregate, Direction::kHigherBetter, -1.0, 1.0, false,
     true, false, 0.4, 0.5},
    {MetricId::kInformedness, "informedness", "Informedness (Youden's J)",
     "TPR+TNR-1", MetricCategory::kAggregate, Direction::kHigherBetter, -1.0,
     1.0, true, true, false, 0.5, 0.5},
    {MetricId::kMarkedness, "markedness", "Markedness", "PPV+NPV-1",
     MetricCategory::kAggregate, Direction::kHigherBetter, -1.0, 1.0, false,
     true, false, 0.4, 0.5},
    {MetricId::kKappa, "kappa", "Cohen's kappa",
     "(po-pe)/(1-pe)", MetricCategory::kAggregate, Direction::kHigherBetter,
     -1.0, 1.0, false, true, false, 0.4, 0.5},
    {MetricId::kAuc, "auc", "Area under ROC curve", "P(score+ > score-)",
     MetricCategory::kAggregate, Direction::kHigherBetter, 0.0, 1.0, true,
     true, false, 0.6, 0.2},

    {MetricId::kNormalizedExpectedCost, "nec", "Normalized expected cost",
     "(cFP*FP+cFN*FN)/(cFP*(FP+TN)+cFN*(TP+FN))", MetricCategory::kCostBased,
     Direction::kLowerBetter, 0.0, 1.0, false, true, true, 0.5, 0.5},
    {MetricId::kWeightedBalancedAccuracy, "wba",
     "Cost-weighted balanced accuracy", "w*TPR+(1-w)*TNR, w=cFN/(cFN+cFP)",
     MetricCategory::kCostBased, Direction::kHigherBetter, 0.0, 1.0, true,
     true, true, 0.5, 0.5},

    {MetricId::kPrevalence, "prevalence", "Workload prevalence", "(TP+FN)/N",
     MetricCategory::kOperational, Direction::kNone, 0.0, 1.0, false, true,
     false, 1.0, 0.5},
    {MetricId::kAlarmDensity, "alarm_density", "Alarm density",
     "(TP+FP)/kLoC", MetricCategory::kOperational, Direction::kNone, 0.0,
     kInf, false, false, false, 0.9, 1.0},
    {MetricId::kAnalysisThroughput, "throughput", "Analysis throughput",
     "kLoC/seconds", MetricCategory::kOperational, Direction::kHigherBetter,
     0.0, kInf, true, false, false, 1.0, 0.8},
    {MetricId::kTimePerDetection, "time_per_detection",
     "Time per detected vulnerability", "seconds/TP",
     MetricCategory::kOperational, Direction::kLowerBetter, 0.0, kInf, false,
     false, false, 0.9, 0.8},
}};

double safe_div(double num, double den) {
  if (den == 0.0 || !std::isfinite(den) || !std::isfinite(num)) return kNaN;
  return num / den;
}

double f_beta(const ConfusionMatrix& cm, double beta) {
  const double p = cm.ppv();
  const double r = cm.tpr();
  if (!is_defined(p) || !is_defined(r)) return kNaN;
  const double b2 = beta * beta;
  const double den = b2 * p + r;
  if (den == 0.0) return 0.0;  // p == r == 0: no correct prediction at all
  return (1.0 + b2) * p * r / den;
}

double mcc(const ConfusionMatrix& cm) {
  const double tp = static_cast<double>(cm.tp);
  const double fp = static_cast<double>(cm.fp);
  const double tn = static_cast<double>(cm.tn);
  const double fn = static_cast<double>(cm.fn);
  const double den =
      std::sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn));
  if (den == 0.0) return kNaN;
  return (tp * tn - fp * fn) / den;
}

double kappa(const ConfusionMatrix& cm) {
  const double n = static_cast<double>(cm.total());
  if (n == 0.0) return kNaN;
  const double po =
      (static_cast<double>(cm.tp) + static_cast<double>(cm.tn)) / n;
  const double p_yes = (static_cast<double>(cm.tp + cm.fp) / n) *
                       (static_cast<double>(cm.tp + cm.fn) / n);
  const double p_no = (static_cast<double>(cm.tn + cm.fn) / n) *
                      (static_cast<double>(cm.tn + cm.fp) / n);
  const double pe = p_yes + p_no;
  if (pe == 1.0) return kNaN;  // degenerate single-class predictions
  return (po - pe) / (1.0 - pe);
}

double normalized_expected_cost(const EvalContext& ctx) {
  const ConfusionMatrix& cm = ctx.cm;
  const double worst =
      ctx.cost_fp * static_cast<double>(cm.actual_negatives()) +
      ctx.cost_fn * static_cast<double>(cm.actual_positives());
  const double cost = ctx.cost_fp * static_cast<double>(cm.fp) +
                      ctx.cost_fn * static_cast<double>(cm.fn);
  return safe_div(cost, worst);
}

double weighted_balanced_accuracy(const EvalContext& ctx) {
  const double w = safe_div(ctx.cost_fn, ctx.cost_fn + ctx.cost_fp);
  const double tpr = ctx.cm.tpr();
  const double tnr = ctx.cm.tnr();
  if (!is_defined(w) || !is_defined(tpr) || !is_defined(tnr)) return kNaN;
  return w * tpr + (1.0 - w) * tnr;
}

}  // namespace

const MetricInfo& metric_info(MetricId id) {
  const auto index = static_cast<std::size_t>(id);
  if (index >= kCatalogue.size())
    throw std::invalid_argument("metric_info: unknown metric id");
  return kCatalogue[index];
}

std::span<const MetricId> all_metrics() {
  static const std::array<MetricId, kMetricCount> ids = [] {
    std::array<MetricId, kMetricCount> out{};
    for (std::size_t i = 0; i < kMetricCount; ++i)
      out[i] = kCatalogue[i].id;
    return out;
  }();
  return ids;
}

std::vector<MetricId> ranking_metrics() {
  std::vector<MetricId> out;
  for (const MetricId id : all_metrics())
    if (metric_info(id).direction != Direction::kNone) out.push_back(id);
  return out;
}

std::optional<MetricId> metric_from_key(std::string_view key) {
  for (const MetricInfo& info : kCatalogue)
    if (info.key == key) return info.id;
  return std::nullopt;
}

double compute_metric(MetricId id, const EvalContext& ctx) {
  const ConfusionMatrix& cm = ctx.cm;
  switch (id) {
    case MetricId::kPrecision:
      return cm.ppv();
    case MetricId::kRecall:
      return cm.tpr();
    case MetricId::kFMeasure:
      return f_beta(cm, 1.0);
    case MetricId::kFHalf:
      return f_beta(cm, 0.5);
    case MetricId::kF2:
      return f_beta(cm, 2.0);
    case MetricId::kJaccard:
      return safe_div(static_cast<double>(cm.tp),
                      static_cast<double>(cm.tp + cm.fp + cm.fn));
    case MetricId::kFowlkesMallows: {
      const double p = cm.ppv();
      const double r = cm.tpr();
      if (!is_defined(p) || !is_defined(r)) return kNaN;
      return std::sqrt(p * r);
    }
    case MetricId::kSpecificity:
      return cm.tnr();
    case MetricId::kNpv:
      return cm.npv();
    case MetricId::kFpRate:
      return cm.fpr();
    case MetricId::kFnRate:
      return cm.fnr();
    case MetricId::kFdRate:
      return cm.fdr();
    case MetricId::kFoRate:
      return cm.fomr();
    case MetricId::kLrPlus: {
      const double tpr = cm.tpr();
      const double fpr = cm.fpr();
      if (!is_defined(tpr) || !is_defined(fpr)) return kNaN;
      if (fpr == 0.0) return tpr == 0.0 ? kNaN : kInf;
      return tpr / fpr;
    }
    case MetricId::kLrMinus: {
      const double fnr = cm.fnr();
      const double tnr = cm.tnr();
      if (!is_defined(fnr) || !is_defined(tnr)) return kNaN;
      // Positive numerator over zero denominator is +inf, matching LR+
      // and DOR; only the 0/0 form is NaN (see the policy in metrics.h).
      if (tnr == 0.0) return fnr == 0.0 ? kNaN : kInf;
      return fnr / tnr;
    }
    case MetricId::kDiagnosticOddsRatio: {
      const double num =
          static_cast<double>(cm.tp) * static_cast<double>(cm.tn);
      const double den =
          static_cast<double>(cm.fp) * static_cast<double>(cm.fn);
      if (den == 0.0) return num == 0.0 ? kNaN : kInf;
      return num / den;
    }
    case MetricId::kPrevalenceThreshold: {
      const double tpr = cm.tpr();
      const double fpr = cm.fpr();
      if (!is_defined(tpr) || !is_defined(fpr)) return kNaN;
      const double den = std::sqrt(tpr) + std::sqrt(fpr);
      if (den == 0.0) return kNaN;
      return std::sqrt(fpr) / den;
    }
    case MetricId::kAccuracy:
      return safe_div(static_cast<double>(cm.tp + cm.tn),
                      static_cast<double>(cm.total()));
    case MetricId::kErrorRate:
      return safe_div(static_cast<double>(cm.fp + cm.fn),
                      static_cast<double>(cm.total()));
    case MetricId::kBalancedAccuracy: {
      const double tpr = cm.tpr();
      const double tnr = cm.tnr();
      if (!is_defined(tpr) || !is_defined(tnr)) return kNaN;
      return (tpr + tnr) / 2.0;
    }
    case MetricId::kGMean: {
      const double tpr = cm.tpr();
      const double tnr = cm.tnr();
      if (!is_defined(tpr) || !is_defined(tnr)) return kNaN;
      return std::sqrt(tpr * tnr);
    }
    case MetricId::kMcc:
      return mcc(cm);
    case MetricId::kInformedness: {
      const double tpr = cm.tpr();
      const double tnr = cm.tnr();
      if (!is_defined(tpr) || !is_defined(tnr)) return kNaN;
      return tpr + tnr - 1.0;
    }
    case MetricId::kMarkedness: {
      const double ppv = cm.ppv();
      const double npv = cm.npv();
      if (!is_defined(ppv) || !is_defined(npv)) return kNaN;
      return ppv + npv - 1.0;
    }
    case MetricId::kKappa:
      return kappa(cm);
    case MetricId::kAuc:
      return ctx.auc;
    case MetricId::kNormalizedExpectedCost:
      return normalized_expected_cost(ctx);
    case MetricId::kWeightedBalancedAccuracy:
      return weighted_balanced_accuracy(ctx);
    case MetricId::kPrevalence:
      return cm.prevalence();
    case MetricId::kAlarmDensity:
      return safe_div(static_cast<double>(cm.predicted_positives()),
                      ctx.kloc);
    case MetricId::kAnalysisThroughput:
      return safe_div(ctx.kloc, ctx.analysis_seconds);
    case MetricId::kTimePerDetection:
      return safe_div(ctx.analysis_seconds, static_cast<double>(cm.tp));
  }
  throw std::invalid_argument("compute_metric: unknown metric id");
}

void compute_all_metrics(const EvalContext& ctx, std::span<double> out) {
  if (out.size() != kMetricCount)
    throw std::invalid_argument(
        "compute_all_metrics: out.size() != kMetricCount");
  const std::span<const MetricId> ids = all_metrics();
  for (std::size_t i = 0; i < kMetricCount; ++i)
    out[i] = compute_metric(ids[i], ctx);
}

double metric_utility(MetricId id, double value) {
  if (!std::isfinite(value)) return kNaN;
  switch (metric_info(id).direction) {
    case Direction::kHigherBetter:
      return value;
    case Direction::kLowerBetter:
      return -value;
    case Direction::kNone:
      return kNaN;
  }
  return kNaN;
}

bool metric_bounded(MetricId id) {
  const MetricInfo& info = metric_info(id);
  return std::isfinite(info.range_lo) && std::isfinite(info.range_hi);
}

std::string_view category_name(MetricCategory category) {
  switch (category) {
    case MetricCategory::kInformationRetrieval:
      return "information retrieval";
    case MetricCategory::kDiagnostic:
      return "diagnostic";
    case MetricCategory::kAggregate:
      return "aggregate";
    case MetricCategory::kCostBased:
      return "cost-based";
    case MetricCategory::kOperational:
      return "operational";
  }
  return "?";
}

std::string_view direction_name(Direction direction) {
  switch (direction) {
    case Direction::kHigherBetter:
      return "higher";
    case Direction::kLowerBetter:
      return "lower";
    case Direction::kNone:
      return "n/a";
  }
  return "?";
}

}  // namespace vdbench::core
