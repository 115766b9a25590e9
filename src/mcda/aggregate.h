// Rank aggregation across rankings (e.g. across MCDA methods or across
// experts' individual orderings): Borda count and Kendall-distance
// diagnostics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vdbench::mcda {

/// A ranking is a best-first ordering of alternative indices. All rankings
/// passed to one aggregation must be permutations of {0..n-1} of the same
/// length; violations throw std::invalid_argument.

/// Borda scores: an alternative ranked r-th (0-based) in a ranking of n
/// earns n-1-r points; totals across rankings, higher = better.
[[nodiscard]] std::vector<double> borda_scores(
    std::span<const std::vector<std::size_t>> rankings);

/// Kendall distance between two rankings: the number of discordant pairs,
/// normalised by n*(n-1)/2 into [0, 1] (0 = identical, 1 = reversed).
[[nodiscard]] double kendall_distance(std::span<const std::size_t> a,
                                      std::span<const std::size_t> b);

}  // namespace vdbench::mcda
