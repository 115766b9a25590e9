#include "stats/timer.h"

#include <algorithm>
#include <stdexcept>

namespace vdbench::stats {

void StageTimer::record(const std::string& label, double seconds) {
  if (seconds < 0.0)
    throw std::invalid_argument("StageTimer::record: seconds must be >= 0");
  const auto it =
      std::find_if(stages_.begin(), stages_.end(),
                   [&](const Stage& s) { return s.label == label; });
  if (it != stages_.end()) {
    it->seconds += seconds;
    ++it->calls;
    return;
  }
  stages_.push_back(Stage{label, seconds, 1});
}

}  // namespace vdbench::stats
