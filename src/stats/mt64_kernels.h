// stats::Mt64's block kernels, for rng.cpp and its tests. Each is built one
// word at a time on every target, and four words at a time with AVX2 on
// x86-64; Mt64 runs the AVX2 build when has_avx2(), and the tests run both.
#pragma once

#include <cstddef>
#include <cstdint>

#include "stats/rng.h"

namespace vdbench::stats::mt64 {

/// Replace the kStateSize words at `state` by the next block.
void twist_portable(std::uint64_t* state) noexcept;
/// How many of the n words at `words`, once tempered, are below `limit`.
std::uint64_t count_below_portable(const std::uint64_t* words, std::size_t n,
                                   std::uint64_t limit) noexcept;

#if defined(__x86_64__)
/// Whether this CPU runs AVX2; probed on the first call.
bool has_avx2() noexcept;
void twist_avx2(std::uint64_t* state) noexcept;
std::uint64_t count_below_avx2(const std::uint64_t* words, std::size_t n,
                               std::uint64_t limit) noexcept;
#endif

}  // namespace vdbench::stats::mt64
