#include "core/confusion.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace vdbench::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double ratio(std::uint64_t num, std::uint64_t den) noexcept {
  if (den == 0) return kNaN;
  return static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

double ConfusionMatrix::tpr() const noexcept { return ratio(tp, tp + fn); }
double ConfusionMatrix::fnr() const noexcept { return ratio(fn, tp + fn); }
double ConfusionMatrix::tnr() const noexcept { return ratio(tn, tn + fp); }
double ConfusionMatrix::fpr() const noexcept { return ratio(fp, tn + fp); }
double ConfusionMatrix::ppv() const noexcept { return ratio(tp, tp + fp); }
double ConfusionMatrix::npv() const noexcept { return ratio(tn, tn + fn); }
double ConfusionMatrix::fdr() const noexcept { return ratio(fp, tp + fp); }
double ConfusionMatrix::fomr() const noexcept { return ratio(fn, tn + fn); }
double ConfusionMatrix::prevalence() const noexcept {
  return ratio(tp + fn, total());
}

ConfusionMatrix& ConfusionMatrix::operator+=(
    const ConfusionMatrix& other) noexcept {
  tp += other.tp;
  fp += other.fp;
  tn += other.tn;
  fn += other.fn;
  return *this;
}

std::string ConfusionMatrix::to_string() const {
  return "TP=" + std::to_string(tp) + " FP=" + std::to_string(fp) +
         " TN=" + std::to_string(tn) + " FN=" + std::to_string(fn);
}

bool is_defined(double value) noexcept { return std::isfinite(value); }

ConfusionMatrix expected_confusion(double sensitivity, double fallout,
                                   double prevalence, std::uint64_t total) {
  if (!(sensitivity >= 0.0 && sensitivity <= 1.0))
    throw std::invalid_argument("expected_confusion: sensitivity in [0,1]");
  if (!(fallout >= 0.0 && fallout <= 1.0))
    throw std::invalid_argument("expected_confusion: fallout in [0,1]");
  if (!(prevalence >= 0.0 && prevalence <= 1.0))
    throw std::invalid_argument("expected_confusion: prevalence in [0,1]");
  if (total == 0)
    throw std::invalid_argument("expected_confusion: total must be > 0");
  const auto positives = static_cast<std::uint64_t>(
      std::llround(prevalence * static_cast<double>(total)));
  const std::uint64_t negatives = total - positives;
  ConfusionMatrix cm;
  cm.tp = static_cast<std::uint64_t>(
      std::llround(sensitivity * static_cast<double>(positives)));
  cm.fn = positives - cm.tp;
  cm.fp = static_cast<std::uint64_t>(
      std::llround(fallout * static_cast<double>(negatives)));
  cm.tn = negatives - cm.fp;
  return cm;
}

}  // namespace vdbench::core
