// Output checks. They test self-consistency, never pinned digests, so a
// deliberate change to export bytes does not read as a failure:
//   cold_study  each export equals a warm replay of the cache it filled;
//   serve       every warm session export equals the first session's;
//   intake      each tool's export is identical across rotations;
//   stream      the replayed counts equal the recorded counts.
// Every check returns an empty string when it passes, else the reason.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

[[nodiscard]] std::string check_identical(std::string_view what,
                                          std::string_view expected,
                                          std::string_view actual);

struct StreamCounts {
  std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
  std::uint64_t sites = 0;
  std::uint64_t chunks = 0;
  friend bool operator==(const StreamCounts&, const StreamCounts&) = default;
};

[[nodiscard]] std::string check_stream_counts(const StreamCounts& recorded,
                                              const StreamCounts& replayed,
                                              std::uint64_t expected_sites);

/// intake: the first export seen for each tool is the reference for every
/// later rotation, and a run must score every tool equally often (whole
/// rotations), so every run measures the same mix of reports.
class RotationCheck {
 public:
  [[nodiscard]] std::string check(std::size_t tool, std::string export_json);
  /// "" when each of `tools` tools was checked the same, non-zero, number
  /// of times.
  [[nodiscard]] std::string whole_rotations(std::size_t tools) const;

 private:
  std::map<std::size_t, std::string> first_;
  std::map<std::size_t, std::size_t> seen_;
};

/// Ops attempted and failed, with the first few failure reasons.
class OpLedger {
 public:
  /// Records one op; an empty `failure` means it succeeded.
  void record(const std::string& failure);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& reasons() const noexcept { return reasons_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string reasons_;
};

}  // namespace perfbench
