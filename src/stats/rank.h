// Ranking utilities and rank agreement.
//
// The metric-selection study compares the *orderings* that different metrics
// induce over a set of tools: two metrics "agree" on a scenario when they
// rank tools the same way. Kendall's tau-b (tie-aware) is the agreement
// measure the experiments use, with top-k overlap and the top choice.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vdbench::stats {

/// Ordering of indices that sorts xs descending (best-first for
/// higher-is-better scores). Stable: ties keep input order.
/// Throws std::invalid_argument on non-finite input.
std::vector<std::size_t> order_descending(std::span<const double> xs);

/// Kendall's tau-b rank correlation (tie-aware).
/// Returns a value in [-1, 1]; 1 for identical orderings, -1 for reversed.
/// Throws if sizes differ, n < 2, any value is non-finite, or either input
/// is entirely tied.
double kendall_tau(std::span<const double> xs, std::span<const double> ys);

/// Fraction of shared items among the top-k of two score vectors
/// (top-k overlap in [0, 1]). k must be in [1, n]; all values must be
/// finite (throws std::invalid_argument otherwise).
double top_k_overlap(std::span<const double> xs, std::span<const double> ys,
                     std::size_t k);

/// True if the two score vectors pick the same single best item
/// (ties broken by lowest index).
bool same_top_choice(std::span<const double> xs, std::span<const double> ys);

}  // namespace vdbench::stats
