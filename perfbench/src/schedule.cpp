#include "schedule.h"

#include <cmath>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a over the name
  for (const char c : stream) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return SplitMix64(seed ^ hash).next();
}

std::vector<Arrival> arrival_schedule(std::uint64_t seed, double rate_per_s,
                                      std::size_t count,
                                      std::size_t refresh_every) {
  SplitMix64 gaps(derive_seed(seed, "arrival-gaps"));
  SplitMix64 mix(derive_seed(seed, "arrival-mix"));
  std::vector<Arrival> schedule(count);
  double t = 0.0;
  std::size_t refresh_at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log1p(-gaps.uniform()) / rate_per_s;
    schedule[i].due_s = t;
    if (refresh_every > 0) {
      if (i % refresh_every == 0) refresh_at = i + mix.next() % refresh_every;
      schedule[i].refresh = i == refresh_at;
    }
  }
  return schedule;
}

}  // namespace perfbench
