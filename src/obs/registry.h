// Runtime metrics for the vdbench harness: a lock-free registry of
// counters and gauges every layer of the stack reports into.
//
// The registry exists so a study run can say *what happened* — cache hits
// and corruptions, executor tasks, supervisor retries, fault firings,
// bytes persisted — without perturbing what the run computes. Three rules
// keep it honest:
//
//  * Lock-free and allocation-free on the hot path: every instrument is a
//    fixed slot in a static array of relaxed atomics, so reporting a count
//    is one fetch_add and can sit inside the parallel engine's task loop.
//  * Deterministic export: instruments are enumerated, named and ordered
//    at compile time, so a telemetry dump renders the same keys in the
//    same order on every run. (Values may legitimately differ between a
//    cold and a warm run — the driver keeps run-variant counters in the
//    run manifest, which is never byte-compared, and derives the byte-
//    identical `telemetry` block of --json-out from the exported content
//    itself. See cli/driver.cpp.)
//  * Observation only: nothing in the library may branch on a counter
//    value; telemetry must never participate in the computation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

namespace vdbench::obs {

/// Monotonic event counts. Order is the canonical export order.
enum class Counter : std::size_t {
  kCacheHits,          ///< ResultCache::fetch served a validated payload
  kCacheMisses,        ///< fetch found nothing usable
  kCacheCorruptions,   ///< entry failed validation and was deleted
  kCacheStores,        ///< entries persisted
  kCacheEvictions,     ///< entries evicted by the LRU cap
  kBytesWritten,       ///< bytes published through write_file_atomic
  kTasksExecuted,      ///< parallel-executor tasks run to completion
  kTasksCancelled,     ///< claim loops abandoned by cooperative cancellation
  kExperimentsComputed,///< experiments computed fresh this process
  kExperimentsReplayed,///< experiments replayed from cache
  kExperimentsFailed,  ///< experiments failed after all retries
  kRetries,            ///< supervisor retry attempts (attempt 2+)
  kFaultFires,         ///< fault-injector rules that fired
  kManifestWrites,     ///< run-manifest publications
  kTraceEvents,        ///< trace events recorded (0 whenever tracing is off)
  kStreamChunksProduced,     ///< chunks the streaming producer emitted
  kStreamChunksConsumed,     ///< chunks folded into confusion counts
  kStreamSites,              ///< site records evaluated through the stream
  kStreamBackpressureWaits,  ///< blocking episodes a full chunk queue imposed
  kLogBytesWritten,          ///< report-log bytes recorded
  kLogBytesRead,             ///< report-log bytes replayed
  kLogCorruptions,           ///< report-log frames rejected as corrupt
  kNetSessionsAccepted,      ///< daemon connections admitted to the queue
  kNetSessionsRejected,      ///< connections refused (queue full or draining)
  kNetSessionsCancelled,     ///< sessions cancelled (deadline or dead client)
  kNetSessionsCompleted,     ///< sessions that ran a study to a final status
  kNetBytesIn,               ///< wire bytes the daemon read from clients
  kNetBytesOut,              ///< wire bytes the daemon wrote to clients
  kCorpusReads,              ///< corpus files (SARIF / manifest) read from disk
  kCorpusFindings,           ///< SARIF results parsed through the corpus reader
  kCorpusSites,              ///< ground-truth sites matched into site records
  kCorpusStrayFindings,      ///< findings matching no manifest site (excluded)
};
inline constexpr std::size_t kCounterCount = 32;

/// Point-in-time values (last write wins; no aggregation).
enum class Gauge : std::size_t {
  kThreads,       ///< parallel-engine concurrency of the current run
  kCacheEntries,  ///< live entries in the result cache
  kCacheBytes,    ///< summed payload bytes in the result cache
  kNetQueueDepth, ///< daemon admission-queue occupancy
};
inline constexpr std::size_t kGaugeCount = 4;

/// Stable dotted export name, e.g. "cache.hits".
[[nodiscard]] std::string_view counter_name(Counter counter) noexcept;
[[nodiscard]] std::string_view gauge_name(Gauge gauge) noexcept;

/// All counter values at one instant, in enum order. Subtraction gives the
/// delta a bounded region (one driver run) contributed.
struct CounterSnapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  [[nodiscard]] std::uint64_t operator[](Counter counter) const noexcept {
    return values[static_cast<std::size_t>(counter)];
  }
  /// Element-wise `this - earlier` (counters are monotonic, so the
  /// difference is the events observed between the two snapshots).
  [[nodiscard]] CounterSnapshot since(const CounterSnapshot& earlier) const
      noexcept;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void add(Counter counter, std::uint64_t n = 1) noexcept {
    counters_[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value(Counter counter) const noexcept {
    return counters_[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
  }

  void set(Gauge gauge, std::uint64_t v) noexcept {
    gauges_[static_cast<std::size_t>(gauge)].store(v,
                                                   std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value(Gauge gauge) const noexcept {
    return gauges_[static_cast<std::size_t>(gauge)].load(
        std::memory_order_relaxed);
  }

  [[nodiscard]] CounterSnapshot snapshot() const noexcept;

  /// Zero every instrument. Tests only — production code treats the
  /// registry as append-only.
  void reset() noexcept;

  /// The process-wide registry every built-in instrument reports into.
  [[nodiscard]] static Registry& global();

 private:
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
  std::array<std::atomic<std::uint64_t>, kGaugeCount> gauges_{};
};

/// Shorthand for Registry::global().add(counter, n).
inline void count(Counter counter, std::uint64_t n = 1) noexcept {
  Registry::global().add(counter, n);
}

}  // namespace vdbench::obs
