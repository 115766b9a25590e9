#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.h"

namespace vdbench::stats {

namespace {

// Regularised incomplete beta via continued fraction (Lentz), used for the
// exact Student-t CDF tail.
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 200;
  constexpr double kEps = 3e-12;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

// ln |Gamma(x)|. std::lgamma would write the global signgam, a data race
// when pool workers run tests at once (e16's campaign tasks do); lgamma_r
// returns the sign through a local and computes the same bits.
double log_gamma(double x) {
  int sign = 0;
  return lgamma_r(x, &sign);
}

double incbeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_beta = log_gamma(a + b) - log_gamma(a) - log_gamma(b);
  const double front = std::exp(ln_beta + a * std::log(x) +
                                b * std::log(1.0 - x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

// Two-sided p-value of Student's t with df degrees of freedom.
double t_two_sided_p(double t, double df) {
  const double x = df / (df + t * t);
  return incbeta(df / 2.0, 0.5, x);
}

}  // namespace

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_quantile(double p) {
  if (p <= 0.0 || p >= 1.0)
    throw std::invalid_argument("normal_quantile: p must be in (0, 1)");
  // Acklam's rational approximation with one Halley refinement step.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // Halley refinement.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

ProportionInterval wilson_interval(double successes, double trials,
                                   double confidence) {
  if (trials <= 0.0)
    throw std::invalid_argument("wilson_interval: trials must be > 0");
  if (successes < 0.0 || successes > trials)
    throw std::invalid_argument(
        "wilson_interval: successes in [0, trials] required");
  if (confidence <= 0.0 || confidence >= 1.0)
    throw std::invalid_argument("wilson_interval: confidence in (0,1)");
  const double z = normal_quantile(0.5 + confidence / 2.0);
  const double p = successes / trials;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / trials;
  const double center = (p + z2 / (2.0 * trials)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) /
      denom;
  ProportionInterval out;
  out.estimate = p;
  out.lower = std::max(0.0, center - half);
  out.upper = std::min(1.0, center + half);
  return out;
}

TestResult welch_t_test(std::span<const double> xs,
                        std::span<const double> ys) {
  if (xs.size() < 2 || ys.size() < 2)
    throw std::invalid_argument("welch_t_test: need n >= 2 per sample");
  const double mx = mean(xs), my = mean(ys);
  const double vx = variance(xs), vy = variance(ys);
  const double nx = static_cast<double>(xs.size());
  const double ny = static_cast<double>(ys.size());
  const double se2 = vx / nx + vy / ny;
  TestResult r;
  if (se2 == 0.0) {
    r.statistic = (mx == my) ? 0.0 : std::numeric_limits<double>::infinity();
    r.p_value = (mx == my) ? 1.0 : 0.0;
    return r;
  }
  r.statistic = (mx - my) / std::sqrt(se2);
  const double df =
      se2 * se2 /
      ((vx / nx) * (vx / nx) / (nx - 1.0) + (vy / ny) * (vy / ny) / (ny - 1.0));
  r.p_value = t_two_sided_p(r.statistic, df);
  return r;
}

double probability_of_superiority(std::span<const double> xs,
                                  std::span<const double> ys) {
  if (xs.empty() || ys.empty())
    throw std::invalid_argument("probability_of_superiority: empty sample");
  // Sort-merge count of the pairs x > y and x == y. A NaN compares false
  // both ways, so it is dropped from the count but stays in the
  // denominator. The all-pairs sum of 1 and 0.5 steps is exact below 2^52,
  // so 2·greater + ties, halved, is the same double bit for bit.
  const auto sorted_numbers = [](std::span<const double> values) {
    std::vector<double> out;
    out.reserve(values.size());
    for (const double v : values)
      if (!std::isnan(v)) out.push_back(v);
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<double> sx = sorted_numbers(xs);
  const std::vector<double> sy = sorted_numbers(ys);
  std::uint64_t twice_wins = 0;
  std::size_t below = 0, not_above = 0;  // ys < x and ys <= x
  for (const double x : sx) {
    while (below < sy.size() && sy[below] < x) ++below;
    if (not_above < below) not_above = below;
    while (not_above < sy.size() && sy[not_above] == x) ++not_above;
    twice_wins += 2 * below + (not_above - below);
  }
  return static_cast<double>(twice_wins) * 0.5 /
         (static_cast<double>(xs.size()) * static_cast<double>(ys.size()));
}

}  // namespace vdbench::stats
