#include "checks.h"

#include <algorithm>
#include <utility>

namespace perfbench {

std::string check_identical(std::string_view what, std::string_view expected,
                            std::string_view actual) {
  if (expected.empty()) return std::string(what) + ": reference is empty";
  if (expected == actual) return {};
  const auto [at, unused] =
      std::mismatch(expected.begin(), expected.end(), actual.begin(),
                    actual.end());
  return std::string(what) + ": differs at byte " +
         std::to_string(at - expected.begin()) + " (" +
         std::to_string(expected.size()) + " vs " +
         std::to_string(actual.size()) + " bytes)";
}

std::string check_stream_counts(const StreamCounts& recorded,
                                const StreamCounts& replayed,
                                std::uint64_t expected_sites) {
  if (recorded.sites != expected_sites)
    return "stream: recorded " + std::to_string(recorded.sites) +
           " sites, expected " + std::to_string(expected_sites);
  if (!(recorded == replayed))
    return "stream: replay counts differ from the recording (tp " +
           std::to_string(recorded.tp) + "/" + std::to_string(replayed.tp) +
           ", sites " + std::to_string(recorded.sites) + "/" +
           std::to_string(replayed.sites) + ", chunks " +
           std::to_string(recorded.chunks) + "/" +
           std::to_string(replayed.chunks) + ")";
  return {};
}

std::string RotationCheck::check(std::size_t tool, std::string export_json) {
  ++seen_[tool];
  const auto [it, inserted] = first_.try_emplace(tool, std::move(export_json));
  if (inserted) {
    if (it->second.empty())
      return "intake: tool " + std::to_string(tool) + " exported nothing";
    return {};
  }
  return check_identical("intake: tool " + std::to_string(tool) + " export",
                         it->second, export_json);
}

std::string RotationCheck::whole_rotations(std::size_t tools) const {
  const std::size_t rotations = seen_.empty() ? 0 : seen_.begin()->second;
  if (rotations == 0 || seen_.size() != tools)
    return "intake: not every tool was scored";
  for (const auto& [tool, count] : seen_)
    if (count != rotations)
      return "intake: tool " + std::to_string(tool) + " scored " +
             std::to_string(count) + " times, tool 0 " +
             std::to_string(rotations) + " times";
  return {};
}

void OpLedger::record(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  if (failed_ <= 3) reasons_ += (reasons_.empty() ? "" : "; ") + failure;
}

}  // namespace perfbench
