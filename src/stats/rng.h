// Deterministic random-number utilities for vdbench.
//
// Every stochastic component in the library takes an explicit Rng so that
// workload generation, tool simulation and property assessment are exactly
// reproducible given a seed. Rng also supports cheap splitting into
// statistically independent child streams, which lets parallel or
// order-independent experiment code stay deterministic.
//
// The engine is Mt64, this file's own mt19937_64: it produces the sequence
// that the C++ standard specifies for std::mt19937_64 ([rand.predef]), for
// every seed. Every variate is computed from its raw 64-bit output by the
// formulas documented below. No standard-library engine or distribution is
// involved, so a seed gives the same numbers with any C++ standard library;
// normal and lognormal draws also depend on libm's log, sqrt and exp.
// tests/support/rng_golden.py recomputes the numbers independently for
// RngGoldenTest.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace vdbench::stats {

namespace mt64 {

/// Words in the engine's state block.
inline constexpr std::size_t kStateSize = 312;

/// [rand.eng.mers]'s tempering of `y`, in place. W is one state word, or a
/// vector of words in rng.cpp's block kernels; by reference, so a 32-byte
/// vector never crosses a call in the baseline ABI.
template <class W>
void temper(W& y) noexcept {
  y ^= (y >> 29) & 0x5555555555555555ULL;
  y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
  y ^= (y << 37) & 0xFFF7EEE000000000ULL;
  y ^= y >> 43;
}

}  // namespace mt64

/// The 64-bit Mersenne Twister of [rand.predef]: the seeding, state
/// recurrence and tempering of std::mt19937_64, hence its output sequence.
/// The twist selects the matrix constant without a branch, and
/// count_below() consumes a run of outputs a state block at a time. Both
/// run four words at a time on a CPU with AVX2, probed once at run time,
/// and one word at a time elsewhere; the outputs are the same.
class Mt64 {
 public:
  /// Seed as [rand.eng.mers] does: x0 = seed and
  /// xi = 6364136223846793005 * (x(i-1) ^ (x(i-1) >> 62)) + i.
  explicit Mt64(std::uint64_t seed) noexcept;

  /// The next output.
  std::uint64_t operator()() noexcept {
    if (index_ == kStateSize) twist();
    std::uint64_t y = state_[index_++];
    mt64::temper(y);
    return y;
  }

  /// How many of the next n outputs are below `limit`. Leaves the engine
  /// where n calls of operator() would.
  std::uint64_t count_below(std::uint64_t n, std::uint64_t limit) noexcept;

 private:
  static constexpr std::size_t kStateSize = mt64::kStateSize;

  /// Replace the state by its next block of kStateSize words.
  void twist() noexcept;

  std::array<std::uint64_t, kStateSize> state_{};
  std::size_t index_ = kStateSize;
};

/// Deterministic pseudo-random generator over Mt64 with a convenience API
/// used across the library.
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
  /// sum of n Bernoulli trials uniform() < p (p clamped to [0,1]). It
  /// consumes n engine outputs, none when n = 0 or the clamped p is 0 or 1,
  /// and counts them in blocks: uniform() < p exactly when the output is
  /// below ceil(p * 2^53) * 2^11. A NaN p consumes n outputs and counts 0.
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
  Mt64 engine_;
  std::uint64_t seed_;
  std::uint64_t split_count_ = 0;
};

}  // namespace vdbench::stats
