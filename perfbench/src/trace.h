// Spans and counts recorded by the harness around its calls into the
// program's layers (the program itself is not instrumented).
//
// A span records its name, start, end and parent; every span opened
// between two begin_op() calls shares one op id. Counts are attached at
// the same boundaries. Everything stays in memory and is written out once,
// at the end, as Chrome trace-event JSON. A layer's self time is its span
// minus the part of that interval its child spans cover.
//
// One Trace is used from one thread at a time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    std::string name;
    std::string detail;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    std::uint64_t op = 0;
  };

  struct Count {
    std::string name;
    double value = 0.0;
    Clock::time_point at;
    std::uint64_t op = 0;
  };

  /// RAII span: ends when destroyed, or at end() if called first.
  class Span {
   public:
    Span(Trace& trace, std::size_t index) : trace_(&trace), index_(index) {}
    Span(Span&& other) noexcept : trace_(other.trace_), index_(other.index_) {
      other.trace_ = nullptr;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span() { end(); }

    /// Close the span now; returns its duration in seconds.
    double end();

   private:
    Trace* trace_;
    std::size_t index_;
    double seconds_ = 0.0;
  };

  /// Start a new op: spans opened from here on share a fresh op id.
  std::uint64_t begin_op() { return ++op_; }

  [[nodiscard]] Span span(std::string name, std::string detail = {});

  /// Insert a finished span (tests, and spans timed elsewhere).
  std::size_t add(Record record);

  void count(std::string name, double value);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<Count>& counts() const noexcept {
    return counts_;
  }

  [[nodiscard]] static double seconds(const Record& record);
  /// Span `index` minus the union of its direct children's intervals.
  [[nodiscard]] double self_seconds(std::size_t index) const;

  /// Chrome trace-event JSON ("X" events with op/parent/self in args,
  /// "C" events for counts), timestamps relative to the first span.
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Record> records_;
  std::vector<Count> counts_;
  std::vector<std::size_t> open_;
  std::uint64_t op_ = 0;
};

}  // namespace perfbench
