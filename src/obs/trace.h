// RAII trace spans for the vdbench harness, emitted as Chrome
// `chrome://tracing` / Perfetto-compatible trace-event JSON.
//
// Every seam of the study runner is bracketed by an obs::Span — driver
// supervise/attempt/replay, executor tasks, cache lookups and stores,
// fault firings, and (through stats::StageTimer) every experiment phase —
// so one flame view shows where a whole study spent its time. The layer
// obeys one hard budget: when tracing is off, a span site costs exactly
// one relaxed atomic load (the same fast-path discipline the fault
// injector uses) and performs no allocation; the `trace.events` counter
// stays at zero, which the test suite asserts.
//
// Spans whose durations the program reports (StageTimer scopes, the
// driver's experiments and attempts) are TimedSpans: they read
// obs::now_ns() once per boundary whether or not tracing is on, and a
// traced run writes those same readings into their B/E events.
//
// Events are buffered per thread (a thread_local log registered with the
// process-wide tracer) so recording never takes a lock; buffers are merged
// and rendered after the run, when the parallel engine is quiescent. The
// JSON is the trace-event array format: paired "B"/"E" duration events per
// thread plus "i" instants, timestamps in microseconds since trace start.
// Load the file at chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/clock.h"

namespace vdbench::obs {

namespace detail {

/// The one word a disarmed span site reads: whether Tracer::start has armed
/// recording. Relaxed is enough because arming happens before the run being
/// observed and the data it gates is per-thread.
inline std::atomic<bool> g_tracing{false};

[[nodiscard]] inline bool tracing() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

}  // namespace detail

/// RAII duration span. Inactive (default) spans are inert value objects;
/// active ones record a "B" event at construction and an "E" event at
/// destruction into the current thread's buffer.
class Span {
 public:
  Span() noexcept = default;
  /// `name` must come from the documented span-name set (see README
  /// "Observability"); `detail` is an optional free-form argument rendered
  /// into the event's args (experiment id, task index).
  explicit Span(std::string_view name, std::string_view detail = {}) {
    if (detail::tracing()) begin(name, detail, now_ns());
  }
  Span(Span&& other) noexcept
      : armed_(other.armed_), name_(std::move(other.name_)) {
    other.armed_ = false;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span& operator=(Span&&) = delete;
  ~Span() {
    if (armed_) end(now_ns());
  }

 private:
  friend class TimedSpan;
  void begin(std::string_view name, std::string_view detail, std::int64_t ns);
  void end(std::int64_t ns);

  bool armed_ = false;
  std::string name_;
};

/// A span whose duration the program reports. It reads now_ns() exactly
/// once at each boundary, whether or not tracing is on; a traced run writes
/// those two readings into the span's B/E events, so the reported seconds
/// and the trace agree to the trace's 1 µs resolution.
class TimedSpan {
 public:
  explicit TimedSpan(std::string_view name, std::string_view detail = {})
      : start_ns_(now_ns()) {
    if (detail::tracing()) span_.begin(name, detail, start_ns_);
  }

  /// End the span and return its duration in seconds. Call once; a span
  /// that is never stopped ends when destroyed.
  double stop() {
    const std::int64_t end_ns = now_ns();
    if (span_.armed_) span_.end(end_ns);
    return static_cast<double>(end_ns - start_ns_) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
  Span span_;
};

/// Record an "i" (instant) event — a point-in-time marker such as a fault
/// firing or a cache-corruption detection. No-op when tracing is off.
void instant(std::string_view name, std::string_view detail = {});

/// Process-wide collector of span events.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Drop any previously collected events and start recording.
  void start();
  /// Stop recording (collected events remain available to render_json).
  void stop();
  [[nodiscard]] bool active() const noexcept { return detail::tracing(); }

  /// Events collected since start(), across all threads.
  [[nodiscard]] std::size_t event_count() const;

  /// Render the collected events as a Chrome trace-event JSON document.
  /// Call only while the instrumented computation is quiescent (the driver
  /// renders after its fork-join loops complete).
  [[nodiscard]] std::string render_json() const;

  [[nodiscard]] static Tracer& global();
};

}  // namespace vdbench::obs
