#include "core/sampling.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/hypothesis.h"

namespace vdbench::core {

void DetectorProfile::validate() const {
  if (!(sensitivity >= 0.0 && sensitivity <= 1.0))
    throw std::invalid_argument("DetectorProfile: sensitivity in [0,1]");
  if (!(fallout >= 0.0 && fallout <= 1.0))
    throw std::invalid_argument("DetectorProfile: fallout in [0,1]");
}

ConfusionMatrix sample_confusion(const DetectorProfile& detector,
                                 double prevalence, std::uint64_t total,
                                 stats::Rng& rng) {
  detector.validate();
  if (!(prevalence >= 0.0 && prevalence <= 1.0))
    throw std::invalid_argument("sample_confusion: prevalence in [0,1]");
  if (total == 0)
    throw std::invalid_argument("sample_confusion: total must be > 0");
  const auto positives = static_cast<std::uint64_t>(
      std::llround(prevalence * static_cast<double>(total)));
  const std::uint64_t negatives = total - positives;
  ConfusionMatrix cm;
  cm.tp = rng.binomial(positives, detector.sensitivity);
  cm.fn = positives - cm.tp;
  cm.fp = rng.binomial(negatives, detector.fallout);
  cm.tn = negatives - cm.fp;
  return cm;
}

double expected_cost(const DetectorProfile& detector, double prevalence,
                     double cost_fn, double cost_fp) {
  detector.validate();
  if (!(prevalence >= 0.0 && prevalence <= 1.0))
    throw std::invalid_argument("expected_cost: prevalence in [0,1]");
  if (!(cost_fn >= 0.0) || !(cost_fp >= 0.0))
    throw std::invalid_argument("expected_cost: costs must be >= 0");
  return prevalence * (1.0 - detector.sensitivity) * cost_fn +
         (1.0 - prevalence) * detector.fallout * cost_fp;
}

double binormal_auc(double sensitivity, double fallout) {
  if (sensitivity <= 0.0 || sensitivity >= 1.0 || fallout <= 0.0 ||
      fallout >= 1.0)
    return std::numeric_limits<double>::quiet_NaN();
  const double d_prime = stats::normal_quantile(sensitivity) -
                         stats::normal_quantile(fallout);
  return stats::normal_cdf(d_prime / std::sqrt(2.0));
}

EvalContext make_abstract_context(const ConfusionMatrix& cm, double cost_fn,
                                  double cost_fp,
                                  const AbstractBenchmarkSettings& settings) {
  if (settings.sites_per_kloc <= 0.0 || settings.kloc_per_second <= 0.0)
    throw std::invalid_argument(
        "make_abstract_context: settings must be positive");
  EvalContext ctx;
  ctx.cm = cm;
  ctx.cost_fn = cost_fn;
  ctx.cost_fp = cost_fp;
  ctx.kloc = static_cast<double>(cm.total()) / settings.sites_per_kloc;
  ctx.analysis_seconds = ctx.kloc / settings.kloc_per_second;
  ctx.auc = binormal_auc(cm.tpr(), cm.fpr());
  return ctx;
}

}  // namespace vdbench::core
