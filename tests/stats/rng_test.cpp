#include "stats/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <set>

#include "stats/mt64_kernels.h"

namespace vdbench::stats {
namespace {

// The Bernoulli sum Rng::binomial is defined by, one uniform() per trial:
// the reference its block count must match draw for draw.
std::uint64_t bernoulli_sum(Rng& rng, std::uint64_t n, double p) {
  if (n == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  if (clamped == 0.0) return 0;
  if (clamped == 1.0) return n;
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < n; ++i)
    if (rng.uniform() < clamped) ++hits;
  return hits;
}

TEST(RngEngineTest, MatchesStdMt19937_64) {
  // The standard library's engine is the oracle here, and only here.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{20150622}, std::numeric_limits<std::uint64_t>::max()}) {
    Mt64 owned(seed);
    std::mt19937_64 standard(seed);
    for (int i = 0; i < 1'000'000; ++i)
      ASSERT_EQ(owned(), standard()) << "seed " << seed << ", output " << i;
  }
}

// The block kernels, each build called directly, against a scalar reference
// written from [rand.eng.mers]: indices wrap modulo n, and the transition
// branches on the low bit as the standard's formula reads.
using State = std::array<std::uint64_t, mt64::kStateSize>;

State seeded_state(std::uint64_t seed) {
  State x{};
  x[0] = seed;
  for (std::size_t i = 1; i < x.size(); ++i)
    x[i] = 6364136223846793005ULL * (x[i - 1] ^ (x[i - 1] >> 62)) + i;
  return x;
}

void reference_twist(State& x) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t y =
        (x[i] & ~std::uint64_t{0x7FFFFFFF}) | (x[(i + 1) % n] & 0x7FFFFFFF);
    x[i] = x[(i + 156) % n] ^ (y >> 1);
    if (y & 1) x[i] ^= 0xB5026F5AA96619E9ULL;
  }
}

std::uint64_t reference_temper(std::uint64_t y) {
  y ^= (y >> 29) & 0x5555555555555555ULL;
  y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
  y ^= (y << 37) & 0xFFF7EEE000000000ULL;
  return y ^ (y >> 43);
}

using TwistKernel = void (*)(std::uint64_t*) noexcept;
using CountKernel = std::uint64_t (*)(const std::uint64_t*, std::size_t,
                                      std::uint64_t) noexcept;

void expect_twist_matches_reference(TwistKernel twist) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{20150622}, std::numeric_limits<std::uint64_t>::max()}) {
    State reference = seeded_state(seed);
    State kernel = reference;
    for (int block = 0; block < 5; ++block) {
      reference_twist(reference);
      twist(kernel.data());
      for (std::size_t i = 0; i < kernel.size(); ++i)
        ASSERT_EQ(kernel[i], reference[i])
            << "seed " << seed << ", block " << block << ", word " << i;
    }
  }
}

void expect_count_matches_reference(CountKernel count) {
  State words = seeded_state(20150622);
  reference_twist(words);
  const auto at = [](double p) {
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53)) << 11;
  };
  for (const std::uint64_t limit :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max(), at(1e-4), at(0.3),
        at(0.97)}) {
    // below[i]: how many of the first i tempered words are below limit.
    std::array<std::uint64_t, mt64::kStateSize + 1> below{};
    for (std::size_t i = 0; i < words.size(); ++i)
      below[i + 1] = below[i] + (reference_temper(words[i]) < limit ? 1 : 0);
    for (std::size_t start = 0; start <= words.size(); ++start)
      for (std::size_t n = 0; start + n <= words.size(); ++n)
        ASSERT_EQ(count(words.data() + start, n, limit),
                  below[start + n] - below[start])
            << "limit " << limit << ", start " << start << ", length " << n;
  }
}

TEST(RngKernelTest, PortableTwistMatchesTheReference) {
  expect_twist_matches_reference(mt64::twist_portable);
}

TEST(RngKernelTest, PortableCountMatchesTheReference) {
  expect_count_matches_reference(mt64::count_below_portable);
}

TEST(RngKernelTest, Avx2TwistMatchesTheReference) {
#if defined(__x86_64__)
  if (!mt64::has_avx2()) GTEST_SKIP() << "this CPU has no AVX2";
  expect_twist_matches_reference(mt64::twist_avx2);
#else
  GTEST_SKIP() << "the AVX2 kernels are built on x86-64 only";
#endif
}

TEST(RngKernelTest, Avx2CountMatchesTheReference) {
#if defined(__x86_64__)
  if (!mt64::has_avx2()) GTEST_SKIP() << "this CPU has no AVX2";
  expect_count_matches_reference(mt64::count_below_avx2);
#else
  GTEST_SKIP() << "the AVX2 kernels are built on x86-64 only";
#endif
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitSequenceIsDeterministic) {
  // The contract: identical parent seed + identical sequence of split calls
  // -> identical children, so reconstructing a parent replays its children.
  Rng a(7), b(7);
  Rng a1 = a.split(3), a2 = a.split(3);
  Rng b1 = b.split(3), b2 = b.split(3);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a1.uniform(), b1.uniform());
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a2.uniform(), b2.uniform());
}

TEST(RngTest, RepeatedSplitWithSameTagYieldsFreshStream) {
  // Regression: split used to be pure in the seed, so two same-tag splits
  // silently reused one stream and call sites had to invent disjoint tag
  // offsets. The per-parent split counter makes every call a new stream.
  Rng parent(7);
  Rng c1 = parent.split(3);
  Rng c2 = parent.split(3);
  EXPECT_EQ(parent.split_count(), 2u);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.uniform() == c2.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitChildrenIndependent) {
  Rng parent(7);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.uniform() == c2.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitCounterDistinguishesParentsWithEqualSeedHistory) {
  // Two parents with the same seed but different split histories produce
  // different next children even for the same tag.
  Rng a(11), b(11);
  (void)a.split(0);  // advance a's split counter only
  Rng ca = a.split(9);
  Rng cb = b.split(9);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (ca.uniform() == cb.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitDoesNotAdvanceParent) {
  Rng a(9), b(9);
  (void)a.split(5);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformRejectsBadRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen, (std::set<std::int64_t>{0, 1, 2, 3}));
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliClampsOutOfRange) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, NormalZeroSdIsDegenerate) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(3.5, 0.0), 3.5);
}

TEST(RngTest, NormalRejectsNegativeSd) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(RngTest, BinomialBounds) {
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t k = rng.binomial(50, 0.4);
    EXPECT_LE(k, 50u);
  }
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(10, 0.0), 0u);
  EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(RngTest, BinomialMeanRoughlyNp) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.binomial(100, 0.25));
  EXPECT_NEAR(sum / n, 25.0, 0.5);
}

TEST(RngTest, BinomialMatchesTheBernoulliSumDrawForDraw) {
  const std::array<std::uint64_t, 8> sizes = {0,   1,   50,  311,
                                              312, 313, 625, 20000};
  const std::array<double, 11> probabilities = {
      std::numeric_limits<double>::quiet_NaN(),
      -0.5,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      0x1.0p-53,
      0.005,
      0.3,
      0.5,
      1.0 - 0x1.0p-53,
      1.0,
      2.0};
  // Outputs drawn before the call, so calls start at, just past, inside
  // and at the end of a 312-output state block.
  const std::array<int, 4> advances = {0, 1, 155, 311};
  std::uint64_t seed = 0;
  for (const std::uint64_t n : sizes)
    for (const double p : probabilities)
      for (const int advance : advances) {
        ++seed;
        Rng blocked(seed), reference(seed);
        for (int i = 0; i < advance; ++i) {
          (void)blocked.uniform();
          (void)reference.uniform();
        }
        EXPECT_EQ(blocked.binomial(n, p), bernoulli_sum(reference, n, p))
            << "n " << n << ", p " << p << ", advance " << advance;
        for (int i = 0; i < 16; ++i)
          ASSERT_EQ(blocked.uniform(), reference.uniform())
              << "n " << n << ", p " << p << ", advance " << advance
              << ", draw " << i;
      }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(37);
  const std::vector<double> w = {0.0, 3.0, 1.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 10000; ++i) counts[rng.categorical(w)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 10000.0, 0.75, 0.03);
}

TEST(RngTest, CategoricalRejectsDegenerateWeights) {
  Rng rng(1);
  const std::vector<double> empty;
  const std::vector<double> zeros = {0.0, 0.0};
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.categorical(empty), std::invalid_argument);
  EXPECT_THROW(rng.categorical(zeros), std::invalid_argument);
  EXPECT_THROW(rng.categorical(negative), std::invalid_argument);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(43);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementRejectsOversample) {
  Rng rng(43);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::stats
