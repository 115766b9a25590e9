#include "stats/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "stats/mt64_kernels.h"

namespace vdbench::stats {

namespace {

using mt64::kStateSize;

// mt19937_64's word split (r = 31 lower bits), shift m and matrix constant a.
constexpr std::uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::size_t kShift = 156;
constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;

// The block kernels run over a lane type W: std::uint64_t, or a vector of
// words. Lanes move by memcpy, which compiles to unaligned loads and stores.
// No helper passes a W by value: baseline and AVX2 code pass a 32-byte
// vector differently.
template <class W>
constexpr std::size_t kLanes = sizeof(W) / sizeof(std::uint64_t);

// Twist the lanes at word k: the upper bits of word k, the lower bits of
// word `next`, shifted right once and xored with word `far`; the low bit
// selects kMatrix by masking, not by a branch whose direction is a coin flip.
template <class W>
[[gnu::always_inline]] inline void twist_at(std::uint64_t* state,
                                            std::size_t k, std::size_t next,
                                            std::size_t far) noexcept {
  W word{}, low{}, far_word{};
  std::memcpy(&word, state + k, sizeof word);
  std::memcpy(&low, state + next, sizeof low);
  std::memcpy(&far_word, state + far, sizeof far_word);
  const W y = (word & kUpperMask) | (low & kLowerMask);
  word = far_word ^ (y >> 1) ^ ((W{} - (y & 1)) & kMatrix);
  std::memcpy(state + k, &word, sizeof word);
}

// Words below kStateSize - kShift read only old words. The next ones read
// `far` words this pass already replaced, kShift back, which is farther than
// one vector; the last word wraps to word 0, as [rand.eng.mers] says.
template <class W>
[[gnu::always_inline]] inline void twist_block(std::uint64_t* state) noexcept {
  static_assert((kStateSize - kShift) % kLanes<W> == 0);
  std::size_t k = 0;
  for (; k < kStateSize - kShift; k += kLanes<W>)
    twist_at<W>(state, k, k + 1, k + kShift);
  for (; k + kLanes<W> < kStateSize; k += kLanes<W>)
    twist_at<W>(state, k, k + 1, k + kShift - kStateSize);
  for (; k < kStateSize - 1; ++k)
    twist_at<std::uint64_t>(state, k, k + 1, k + kShift - kStateSize);
  twist_at<std::uint64_t>(state, k, 0, kShift - 1);
}

template <class W>
[[gnu::always_inline]] inline std::uint64_t count_block(
    const std::uint64_t* words, std::size_t n, std::uint64_t limit) noexcept {
  const W bound = W{} + limit;
  W hits{}, y{};
  std::size_t i = 0;
  for (; i + kLanes<W> <= n; i += kLanes<W>) {
    std::memcpy(&y, words + i, sizeof y);
    mt64::temper(y);
    hits += (W)(y < bound) & 1;  // a true lane compares as all ones
  }
  std::uint64_t lanes[kLanes<W>], total = 0;
  std::memcpy(lanes, &hits, sizeof hits);
  for (const std::uint64_t lane : lanes) total += lane;
  if constexpr (kLanes<W> > 1)
    total += count_block<std::uint64_t>(words + i, n - i, limit);
  return total;
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

namespace mt64 {

void twist_portable(std::uint64_t* state) noexcept {
  twist_block<std::uint64_t>(state);
}

std::uint64_t count_below_portable(const std::uint64_t* words, std::size_t n,
                                   std::uint64_t limit) noexcept {
  return count_block<std::uint64_t>(words, n, limit);
}

#if defined(__x86_64__)
// Four words, in GCC's and Clang's vector extension.
typedef std::uint64_t Lanes4 __attribute__((vector_size(32)));

bool has_avx2() noexcept {
  // Probed on first use, which may come before the runtime has run its own
  // CPU probe (an Rng in a static initialiser), hence __builtin_cpu_init.
  static const bool supported =
      (__builtin_cpu_init(), __builtin_cpu_supports("avx2") != 0);
  return supported;
}

[[gnu::target("avx2")]] void twist_avx2(std::uint64_t* state) noexcept {
  twist_block<Lanes4>(state);
}

[[gnu::target("avx2")]] std::uint64_t count_below_avx2(
    const std::uint64_t* words, std::size_t n, std::uint64_t limit) noexcept {
  return count_block<Lanes4>(words, n, limit);
}
#endif

}  // namespace mt64

Mt64::Mt64(std::uint64_t seed) noexcept {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt64::twist() noexcept {
#if defined(__x86_64__)
  if (mt64::has_avx2())
    mt64::twist_avx2(state_.data());
  else
#endif
    mt64::twist_portable(state_.data());
  index_ = 0;
}

std::uint64_t Mt64::count_below(std::uint64_t n,
                                std::uint64_t limit) noexcept {
  std::uint64_t hits = 0;
  while (n > 0) {
    if (index_ == kStateSize) twist();
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, kStateSize - index_));
    const std::uint64_t* words = state_.data() + index_;
#if defined(__x86_64__)
    if (mt64::has_avx2())
      hits += mt64::count_below_avx2(words, take, limit);
    else
#endif
      hits += mt64::count_below_portable(words, take, limit);
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
  // which already do per-site work proportional to n. An O(1) sampler
  // such as BTPE consumes outputs differently, so it would move exports.
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
