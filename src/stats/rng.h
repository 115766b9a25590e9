// Deterministic random-number utilities for vdbench.
//
// Every stochastic component in the library takes an explicit Rng so that
// workload generation, tool simulation and property assessment are exactly
// reproducible given a seed. Rng also supports cheap splitting into
// statistically independent child streams, which lets parallel or
// order-independent experiment code stay deterministic.
//
// Every variate is computed from std::mt19937_64's raw 64-bit output, whose
// sequence the C++ standard specifies, by the formulas documented below. No
// standard-library distribution is involved, so a seed gives the same
// numbers with any C++ standard library; normal and lognormal draws also
// depend on libm's log, sqrt and exp. tests/support/rng_golden.py
// recomputes the numbers independently for RngGoldenTest.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace vdbench::stats {

/// Deterministic pseudo-random generator over std::mt19937_64 with a
/// convenience API used across the library.
class Rng {
 public:
  /// Construct from a 64-bit seed. Identical seeds yield identical streams.
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Seed used to construct this generator.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derive an independent child stream. The child seed mixes the parent
  /// seed, the tag and a per-parent split counter, so children are
  /// independent of each other (even when tags collide across successive
  /// calls), of the parent's future output, and of children split from other
  /// parents. Contract: given the same parent seed and the same *sequence*
  /// of split calls, the derived children are identical — splitting is
  /// deterministic per call sequence, not per tag. Splitting never advances
  /// the parent's engine, so draws interleaved with splits are unaffected.
  [[nodiscard]] Rng split(std::uint64_t tag);

  /// Number of times split() has been called on this generator.
  [[nodiscard]] std::uint64_t split_count() const noexcept {
    return split_count_;
  }

  /// Uniform double in [0, 1): the top 53 bits of one engine output, times
  /// 2^-53.
  double uniform();

  /// Uniform double in [lo, hi): uniform() * (hi - lo) + lo, with a result
  /// that rounds up to hi replaced by the largest double below hi. Requires
  /// lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive, by Lemire's multiply-shift
  /// rejection on engine outputs. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]):
  /// uniform() < p. Always consumes one engine output.
  bool bernoulli(double p);

  /// Normal draw with the given mean and standard deviation (sd >= 0), by
  /// Marsaglia's polar method; each call consumes a fresh pair.
  double normal(double mean, double sd);

  /// Log-normal draw: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Binomial draw: number of successes in n trials of probability p, as a
  /// sum of n Bernoulli trials.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Index into a non-empty discrete distribution given by non-negative
  /// weights (not necessarily normalised). Throws if all weights are zero.
  std::size_t categorical(std::span<const double> weights);

  /// Uniformly pick an element index of a container of the given size (> 0).
  std::size_t pick_index(std::size_t size);

  /// Sample k distinct indices from [0, n) without replacement (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t split_count_ = 0;
};

}  // namespace vdbench::stats
