#include "obs/trace.h"

#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/registry.h"

namespace vdbench::obs {

namespace {

struct TraceEvent {
  std::string name;
  std::string detail;  ///< rendered as args.detail when non-empty
  char phase = 'B';    ///< 'B' begin, 'E' end, 'i' instant
  std::uint64_t ts_us = 0;
  std::uint32_t tid = 0;
};

// One thread's event log. Owned jointly by the thread (thread_local
// shared_ptr, so recording never locks) and by the tracer's registry (so
// the events survive the thread). The executor's fork-join is what makes
// the cross-thread reads safe: every append happens-before the join that
// precedes render_json().
struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct TracerState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadLog>> logs;
  std::uint32_t next_tid = 0;
  // Bumped by Tracer::start so stale thread_local logs re-register.
  std::atomic<std::uint64_t> epoch{1};
  // now_ns() at trace start; atomic so recording threads can read it
  // without locking (tsan-clean).
  std::atomic<std::int64_t> start_ns{0};
};

TracerState& state() {
  static TracerState s;
  return s;
}

// The calling thread's log for the current trace epoch, registering a
// fresh one on first use (or first use after a new start()).
ThreadLog& thread_log() {
  thread_local std::shared_ptr<ThreadLog> tl_log;
  thread_local std::uint64_t tl_epoch = 0;
  TracerState& s = state();
  const std::uint64_t epoch = s.epoch.load(std::memory_order_acquire);
  if (!tl_log || tl_epoch != epoch) {
    auto fresh = std::make_shared<ThreadLog>();
    std::lock_guard<std::mutex> lock(s.mutex);
    fresh->tid = s.next_tid++;
    s.logs.push_back(fresh);
    tl_log = std::move(fresh);
    tl_epoch = epoch;
  }
  return *tl_log;
}

// `now` is the caller's now_ns() reading of the event's instant.
void record_event(char phase, std::string_view name, std::string_view detail,
                  std::int64_t now) {
  TracerState& s = state();
  const std::int64_t start = s.start_ns.load(std::memory_order_acquire);
  ThreadLog& log = thread_log();
  TraceEvent event;
  event.name.assign(name);
  event.detail.assign(detail);
  event.phase = phase;
  event.ts_us =
      now >= start ? static_cast<std::uint64_t>((now - start) / 1000) : 0;
  event.tid = log.tid;
  log.events.push_back(std::move(event));
  count(Counter::kTraceEvents);
}

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void Span::begin(std::string_view name, std::string_view detail,
                 std::int64_t ns) {
  armed_ = true;
  name_.assign(name);
  record_event('B', name_, detail, ns);
}

void Span::end(std::int64_t ns) {
  armed_ = false;
  record_event('E', name_, {}, ns);
}

void instant(std::string_view name, std::string_view detail) {
  if (detail::tracing()) record_event('i', name, detail, now_ns());
}

void Tracer::start() {
  TracerState& s = state();
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.logs.clear();
    s.next_tid = 0;
  }
  s.start_ns.store(now_ns(), std::memory_order_release);
  s.epoch.fetch_add(1, std::memory_order_release);
  detail::g_tracing.store(true, std::memory_order_relaxed);
}

void Tracer::stop() {
  detail::g_tracing.store(false, std::memory_order_relaxed);
}

std::size_t Tracer::event_count() const {
  TracerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::size_t n = 0;
  for (const std::shared_ptr<ThreadLog>& log : s.logs)
    n += log->events.size();
  return n;
}

std::string Tracer::render_json() const {
  TracerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::shared_ptr<ThreadLog>& log : s.logs) {
    for (const TraceEvent& event : log->events) {
      if (!first) out += ',';
      first = false;
      out += "\n{\"name\":\"";
      append_escaped(out, event.name);
      out += "\",\"cat\":\"vdbench\",\"ph\":\"";
      out += event.phase;
      out += "\",\"ts\":";
      out += std::to_string(event.ts_us);
      out += ",\"pid\":1,\"tid\":";
      out += std::to_string(event.tid);
      if (event.phase == 'i') out += ",\"s\":\"t\"";
      if (!event.detail.empty()) {
        out += ",\"args\":{\"detail\":\"";
        append_escaped(out, event.detail);
        out += "\"}";
      }
      out += '}';
    }
  }
  out += "\n]}\n";
  return out;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

}  // namespace vdbench::obs
