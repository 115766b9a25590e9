#include "mcda/aggregate.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace vdbench::mcda {

namespace {

// Position of each alternative in a ranking; also validates that the
// ranking is a permutation of {0..n-1}.
std::vector<std::size_t> positions_of(std::span<const std::size_t> ranking,
                                      std::size_t n) {
  if (ranking.size() != n)
    throw std::invalid_argument("rank aggregation: ranking length mismatch");
  std::vector<std::size_t> pos(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t alt = ranking[r];
    if (alt >= n || pos[alt] != n)
      throw std::invalid_argument(
          "rank aggregation: ranking is not a permutation");
    pos[alt] = r;
  }
  return pos;
}

std::size_t common_size(std::span<const std::vector<std::size_t>> rankings) {
  if (rankings.empty())
    throw std::invalid_argument("rank aggregation: no rankings");
  const std::size_t n = rankings.front().size();
  if (n == 0) throw std::invalid_argument("rank aggregation: empty ranking");
  return n;
}

}  // namespace

std::vector<double> borda_scores(
    std::span<const std::vector<std::size_t>> rankings) {
  const std::size_t n = common_size(rankings);
  std::vector<double> scores(n, 0.0);
  for (const std::vector<std::size_t>& ranking : rankings) {
    const std::vector<std::size_t> pos = positions_of(ranking, n);
    for (std::size_t alt = 0; alt < n; ++alt)
      scores[alt] += static_cast<double>(n - 1 - pos[alt]);
  }
  return scores;
}

std::vector<std::size_t> ranking_from_scores(std::span<const double> scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  return order;
}

double kendall_distance(std::span<const std::size_t> a,
                        std::span<const std::size_t> b) {
  const std::size_t n = a.size();
  if (n < 2)
    throw std::invalid_argument("kendall_distance: need at least 2 items");
  const std::vector<std::size_t> pa = positions_of(a, n);
  const std::vector<std::size_t> pb = positions_of(b, n);
  std::size_t discordant = 0;
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      const bool a_order = pa[x] < pa[y];
      const bool b_order = pb[x] < pb[y];
      if (a_order != b_order) ++discordant;
    }
  }
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  return static_cast<double>(discordant) / pairs;
}

}  // namespace vdbench::mcda
