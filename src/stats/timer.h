// Lightweight wall-clock instrumentation for experiments.
//
// A StageTimer accumulates named phases ("stage 1", "agreement matrix",
// "export") measured with RAII scopes. The driver prints them as each
// experiment's stage table and records them in the run manifest's
// per-experiment stages. Timing only observes the computation — it never
// participates in it — so recorded results stay deterministic even though
// the timings themselves are not.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace vdbench::stats {

/// Accumulates named wall-clock stages in first-recorded order.
class StageTimer {
 public:
  struct Stage {
    std::string label;
    double seconds = 0.0;
    std::size_t calls = 0;
  };

  /// RAII scope: measures from construction to destruction and adds the
  /// elapsed wall-clock time to the owning timer under its label. Each
  /// scope doubles as an obs::Span named after the label, so every
  /// experiment phase appears in a --trace-out flame view and in the
  /// VDBENCH_PROF summary without per-experiment instrumentation.
  class Scope {
   public:
    Scope(Scope&& other) noexcept
        : timer_(other.timer_), label_(std::move(other.label_)),
          span_(std::move(other.span_)), start_(other.start_) {
      other.timer_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() {
      if (timer_ != nullptr) timer_->stop(*this);
    }

   private:
    friend class StageTimer;
    Scope(StageTimer* timer, std::string label)
        : timer_(timer), label_(std::move(label)), span_(label_),
          start_(std::chrono::steady_clock::now()) {}

    StageTimer* timer_;
    std::string label_;
    obs::Span span_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Start measuring a stage; elapsed time is recorded when the returned
  /// scope is destroyed. Repeated labels accumulate.
  [[nodiscard]] Scope scope(std::string label) {
    return Scope(this, std::move(label));
  }

  /// Record an externally measured duration (seconds >= 0).
  void record(const std::string& label, double seconds);

  /// Stages in the order their labels were first recorded.
  [[nodiscard]] const std::vector<Stage>& stages() const noexcept {
    return stages_;
  }

 private:
  void stop(const Scope& scope);

  std::vector<Stage> stages_;
};

}  // namespace vdbench::stats
