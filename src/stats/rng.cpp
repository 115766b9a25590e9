#include "stats/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace vdbench::stats {

namespace {

// mt19937_64's word split (r = 31 lower bits), shift m and matrix constant a.
constexpr std::uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::size_t kShift = 156;
constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;

// One word of the twist: the upper bits of `word`, the lower bits of `next`,
// shifted right once and xored with `far`; the low bit selects kMatrix by
// masking, not by a branch whose direction is a coin flip.
std::uint64_t twisted(std::uint64_t word, std::uint64_t next,
                      std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

// SplitMix64 finaliser; used to derive well-mixed child seeds.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Uniform integer in [0, range) for range >= 1, by Lemire's multiply-shift
// (arXiv 1805.10941): the high word of x * range is uniform once products
// whose low word falls below 2^64 mod range are rejected.
std::uint64_t below(Mt64& engine, std::uint64_t range) {
  __extension__ typedef unsigned __int128 Wide;
  Wide product = static_cast<Wide>(engine()) * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      product = static_cast<Wide>(engine()) * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

}  // namespace

Mt64::Mt64(std::uint64_t seed) noexcept {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt64::twist() noexcept {
  // Words past kStateSize - kShift read `far` words this pass already
  // replaced, and the last word wraps to word 0, as [rand.eng.mers] says.
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k)
    state_[k] = twisted(state_[k], state_[k + 1], state_[k + kShift]);
  for (; k < kStateSize - 1; ++k)
    state_[k] =
        twisted(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  state_[k] = twisted(state_[k], state_[0], state_[kShift - 1]);
  index_ = 0;
}

std::uint64_t Mt64::count_below(std::uint64_t n,
                                std::uint64_t limit) noexcept {
  std::uint64_t hits = 0;
  while (n > 0) {
    if (index_ == kStateSize) twist();
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, kStateSize - index_));
    for (std::size_t i = index_; i < index_ + take; ++i)
      hits += temper(state_[i]) < limit ? 1 : 0;
    index_ += take;
    n -= take;
  }
  return hits;
}

Rng Rng::split(std::uint64_t tag) {
  // Fold the per-parent call counter into the derived seed so repeated
  // splits with an identical tag still yield distinct, well-separated child
  // streams (the pre-counter behaviour silently reused streams and forced
  // call sites into ad-hoc additive tag offsets to dodge collisions).
  const std::uint64_t call = split_count_++;
  std::uint64_t h = seed_;
  h = mix64(h ^ mix64(tag + 0x5851F42D4C957F2DULL));
  h = mix64(h ^ mix64(call + 0x2545F4914F6CDD1DULL));
  return Rng(h);
}

double Rng::uniform() {
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("Rng::uniform: lo must be < hi");
  const double x = uniform() * (hi - lo) + lo;
  return x < hi ? x : std::nextafter(hi, lo);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo must be <= hi");
  // Unsigned arithmetic wraps, so the full int64 range needs no special
  // case beyond taking one engine output as is.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t offset =
      span == std::numeric_limits<std::uint64_t>::max()
          ? engine_()
          : below(engine_, span + 1);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

bool Rng::bernoulli(double p) {
  return uniform() < std::clamp(p, 0.0, 1.0);
}

double Rng::normal(double mean, double sd) {
  if (sd < 0.0) throw std::invalid_argument("Rng::normal: sd must be >= 0");
  if (sd == 0.0) return mean;
  // Marsaglia's polar method. The pair's other value, x * m, is dropped.
  double x = 0.0, y = 0.0, r2 = 0.0;
  do {
    x = 2.0 * uniform() - 1.0;
    y = 2.0 * uniform() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double m = std::sqrt(-2.0 * std::log(r2) / r2);
  return (y * m) * sd + mean;
}

double Rng::lognormal(double mu, double sigma) {
  if (sigma < 0.0) throw std::invalid_argument("Rng::lognormal: sigma >= 0");
  if (sigma == 0.0) return std::exp(mu);
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  // A sum of Bernoulli trials: exact and O(n), no worse than the callers,
  // which already do per-site work proportional to n. The usual O(1)
  // samplers need log-factorials, and lgamma() writes the global signgam,
  // a data race when workers sample concurrently.
  // uniform() is k * 2^-53 for k = output >> 11, so uniform() < p holds
  // exactly when k < ceil(p * 2^53). For p < 1 that bound is at most
  // 2^53 - 1, so shifting it left by 11 cannot overflow.
  if (n == 0) return 0;
  if (std::isnan(p)) return engine_.count_below(n, 0);  // never < NaN
  const double clamped = std::clamp(p, 0.0, 1.0);
  if (clamped == 0.0) return 0;
  if (clamped == 1.0) return n;
  const auto bound = static_cast<std::uint64_t>(std::ceil(clamped * 0x1.0p53));
  return engine_.count_below(n, bound << 11);
}

std::size_t Rng::categorical(std::span<const double> weights) {
  if (weights.empty())
    throw std::invalid_argument("Rng::categorical: empty weights");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w))
      throw std::invalid_argument("Rng::categorical: weights must be >= 0");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("Rng::categorical: all weights are zero");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numerical tail
}

std::size_t Rng::pick_index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Rng::pick_index: empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n)
    throw std::invalid_argument("sample_without_replacement: k must be <= n");
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  // Partial Fisher-Yates: the first k slots end up a uniform k-subset.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + pick_index(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace vdbench::stats
