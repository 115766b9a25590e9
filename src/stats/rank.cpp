#include "stats/rank.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

namespace vdbench::stats {

namespace {

// NaN (and ±inf with raw </> comparators) breaks the strict weak ordering
// std::stable_sort requires and poisons every pairwise comparison, so all
// ranking entry points reject non-finite input up front instead of
// returning an unspecified ordering.
void require_finite(std::span<const double> xs, const char* who) {
  for (const double x : xs)
    if (!std::isfinite(x))
      throw std::invalid_argument(std::string(who) +
                                  ": input must be finite (no NaN/inf)");
}

void require_paired(std::span<const double> xs, std::span<const double> ys,
                    const char* who) {
  if (xs.size() != ys.size())
    throw std::invalid_argument(std::string(who) + ": size mismatch");
  if (xs.size() < 2)
    throw std::invalid_argument(std::string(who) +
                                ": need at least two pairs");
  require_finite(xs, who);
  require_finite(ys, who);
}

}  // namespace

std::vector<std::size_t> order_descending(std::span<const double> xs) {
  require_finite(xs, "order_descending");
  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return xs[a] > xs[b]; });
  return order;
}

double kendall_tau(std::span<const double> xs, std::span<const double> ys) {
  require_paired(xs, ys, "kendall_tau");
  const std::size_t n = xs.size();
  std::int64_t concordant = 0, discordant = 0;
  std::int64_t ties_x = 0, ties_y = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      if (dx == 0.0 && dy == 0.0) {
        // Tied in both: excluded from every term of tau-b.
      } else if (dx == 0.0) {
        ++ties_x;
      } else if (dy == 0.0) {
        ++ties_y;
      } else if ((dx > 0.0) == (dy > 0.0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double n0x =
      static_cast<double>(concordant + discordant + ties_x);
  const double n0y =
      static_cast<double>(concordant + discordant + ties_y);
  if (n0x == 0.0 || n0y == 0.0)
    throw std::invalid_argument("kendall_tau: an input is entirely tied");
  return static_cast<double>(concordant - discordant) / std::sqrt(n0x * n0y);
}

double top_k_overlap(std::span<const double> xs, std::span<const double> ys,
                     std::size_t k) {
  require_paired(xs, ys, "top_k_overlap");
  if (k == 0 || k > xs.size())
    throw std::invalid_argument("top_k_overlap: k must be in [1, n]");
  const std::vector<std::size_t> ox = order_descending(xs);
  const std::vector<std::size_t> oy = order_descending(ys);
  std::vector<std::size_t> tx(ox.begin(), ox.begin() + static_cast<long>(k));
  std::vector<std::size_t> ty(oy.begin(), oy.begin() + static_cast<long>(k));
  std::sort(tx.begin(), tx.end());
  std::sort(ty.begin(), ty.end());
  std::vector<std::size_t> shared;
  std::set_intersection(tx.begin(), tx.end(), ty.begin(), ty.end(),
                        std::back_inserter(shared));
  return static_cast<double>(shared.size()) / static_cast<double>(k);
}

bool same_top_choice(std::span<const double> xs, std::span<const double> ys) {
  require_paired(xs, ys, "same_top_choice");
  return order_descending(xs).front() == order_descending(ys).front();
}

}  // namespace vdbench::stats
