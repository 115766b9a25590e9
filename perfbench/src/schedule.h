// Seeded inputs: the open-loop arrival schedule of the vdbenchd probes.
// Everything derives from the workload seed through a splitmix64 generator
// spelled out here, never through a standard-library distribution, so one
// seed gives the same inputs under every toolchain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();

 private:
  std::uint64_t state_;
};

/// An independent seed for one named input stream of a workload.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::string_view stream);

struct Arrival {
  double due_s = 0.0;    ///< offset from the start of the load phase
  bool refresh = false;  ///< a refresh session instead of a warm one
};

/// `count` Poisson arrivals at `rate_per_s`. In every block of
/// `refresh_every` consecutive arrivals exactly one, at a seeded position,
/// is a refresh session, so every run carries the same mix.
[[nodiscard]] std::vector<Arrival> arrival_schedule(std::uint64_t seed,
                                                    double rate_per_s,
                                                    std::size_t count,
                                                    std::size_t refresh_every);

}  // namespace perfbench
