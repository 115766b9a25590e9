// Per-phase timing for experiments.
//
// A StageTimer accumulates named phases ("stage 1", "agreement matrix",
// "export") measured with RAII scopes. The driver prints them as each
// experiment's stage table and records them in the run manifest's
// per-experiment stages. Each scope is an obs::TimedSpan, so a phase's
// seconds come from the same two obs::now_ns() readings its trace B/E pair
// carries. Timing only observes the computation — it never participates in
// it — so recorded results stay deterministic even though the timings
// themselves are not.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace vdbench::stats {

/// Accumulates named stage durations in first-recorded order.
class StageTimer {
 public:
  struct Stage {
    std::string label;
    double seconds = 0.0;
    std::size_t calls = 0;
  };

  /// RAII scope: measures from construction to destruction and adds the
  /// elapsed time to the owning timer under its label. The scope is an
  /// obs::TimedSpan named after the label, so every experiment phase
  /// appears in a --trace-out flame view, with the duration the stage table
  /// reports, without per-experiment instrumentation.
  class Scope {
   public:
    Scope(Scope&& other) noexcept
        : timer_(other.timer_), label_(std::move(other.label_)),
          span_(std::move(other.span_)) {
      other.timer_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() {
      if (timer_ != nullptr) timer_->record(label_, span_.stop());
    }

   private:
    friend class StageTimer;
    Scope(StageTimer* timer, std::string label)
        : timer_(timer), label_(std::move(label)), span_(label_) {}

    StageTimer* timer_;
    std::string label_;
    obs::TimedSpan span_;
  };

  /// Start measuring a stage; elapsed time is recorded when the returned
  /// scope is destroyed. Repeated labels accumulate.
  [[nodiscard]] Scope scope(std::string label) {
    return Scope(this, std::move(label));
  }

  /// Add `seconds` (>= 0) to the stage `label`; each scope ends here.
  void record(const std::string& label, double seconds);

  /// Stages in the order their labels were first recorded.
  [[nodiscard]] const std::vector<Stage>& stages() const noexcept {
    return stages_;
  }

 private:
  std::vector<Stage> stages_;
};

}  // namespace vdbench::stats
