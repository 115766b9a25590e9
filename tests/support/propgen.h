// Minimal property-based test generator (header-only, no new deps).
//
// Each test derives its own deterministic random stream by seeding a
// splitmix64 generator from the current gtest suite + test name, so:
//  * failures reproduce exactly on re-run (no time-based seeds), and
//  * adding a case to one test never shifts the stream of another.
// On failure, gtest prints the offending generated value via the usual
// assertion message — include `cm.to_string()` (or equivalent) in every
// property assertion so the counterexample is visible.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/confusion.h"

namespace vdbench::testsupport {

/// Deterministic generator for randomized property tests.
class PropGen {
 public:
  explicit PropGen(std::uint64_t seed) : state_(seed) {}

  /// Seeded from "SuiteName.TestName" of the currently running test.
  static PropGen from_current_test() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "propgen";
    if (info != nullptr)
      name = std::string(info->test_suite_name()) + "." + info->name();
    return PropGen(fnv1a(name));
  }

  /// splitmix64 step: uniform 64-bit output, passes statistical tests and
  /// never has a zero-length cycle regardless of seed.
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound] (bound inclusive, small biases are
  /// irrelevant for property generation).
  std::uint64_t below(std::uint64_t bound) {
    return bound == 0 ? 0 : next_u64() % (bound + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Random confusion matrix with cells in [0, cell_max]. One case in four
  /// zeroes a random cell so degenerate denominators (empty positive class,
  /// no reports, ...) are exercised, not just the bulk of the space.
  core::ConfusionMatrix confusion(std::uint64_t cell_max = 400) {
    core::ConfusionMatrix cm;
    cm.tp = below(cell_max);
    cm.fp = below(cell_max);
    cm.tn = below(cell_max);
    cm.fn = below(cell_max);
    if (below(3) == 0) {
      switch (below(3)) {
        case 0: cm.tp = 0; break;
        case 1: cm.fp = 0; break;
        case 2: cm.tn = 0; break;
        default: cm.fn = 0; break;
      }
    }
    return cm;
  }

 private:
  static std::uint64_t fnv1a(std::string_view text) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001B3ULL;
    }
    return h;
  }

  std::uint64_t state_;
};

/// Fixed edge inputs for the degenerate-input policy: the 16 matrices whose
/// cells are each 0 or 1, then a single actual positive (TP + FN == 1) and
/// a single actual negative (FP + TN == 1), each among 1,000 sites.
inline std::vector<core::ConfusionMatrix> edge_confusions() {
  std::vector<core::ConfusionMatrix> out;
  for (std::uint64_t cells = 0; cells < 16; ++cells)
    out.push_back(core::ConfusionMatrix{.tp = cells & 1,
                                        .fp = (cells >> 1) & 1,
                                        .tn = (cells >> 2) & 1,
                                        .fn = (cells >> 3) & 1});
  out.push_back(core::ConfusionMatrix{.tp = 1, .fp = 40, .tn = 959, .fn = 0});
  out.push_back(core::ConfusionMatrix{.tp = 960, .fp = 1, .tn = 0, .fn = 39});
  return out;
}

}  // namespace vdbench::testsupport
