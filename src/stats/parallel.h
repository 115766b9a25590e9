// Deterministic parallel execution engine for vdbench's Monte Carlo loops.
//
// Every hot loop in the library (property-assessment trial sweeps, agreement
// populations, repeated-benchmark runs, power-analysis campaigns) is a fan-out
// over an index range where task i derives its own child Rng up front (via
// Rng::split, on the calling thread, in index order) and writes its result
// into slot i of a pre-sized output vector. Under that discipline the output
// is bit-identical to a serial execution and invariant to the worker count —
// the executor only changes *when* task i runs, never what it computes or
// where it writes.
//
// The process-wide pool is created once on first use; its size comes from the
// VDBENCH_THREADS environment variable when set (1 to kMaxThreads), otherwise
// from std::thread::hardware_concurrency(). No pool holds more than
// kMaxThreads threads. Nested parallel_for_indexed calls
// (a task that itself fans out) run inline on the worker thread, so nesting
// cannot deadlock the fixed pool.
//
// Each call has one claim counter: the calling thread and every worker take
// the next unclaimed index from it until the range is exhausted, so a free
// thread always picks up the next task of an uneven sweep. The schedule
// changes only WHEN task i runs, so the contract above holds.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>

namespace vdbench::stats {

/// Cooperative cancellation flag with an optional steady-clock deadline,
/// shared between a supervisor (a --timeout-sec attempt, a daemon's drain,
/// session deadline and connection teardown) and the execution engine. A
/// token fires once request_cancel() was called or its deadline has passed,
/// and stays fired; a deadline needs no thread to watch it, because every
/// poll reads the clock. Workers observe a fired token between task claims,
/// stop claiming, and the fork-join call throws Cancelled. A cancelled
/// computation's partial results depend on scheduling and must be discarded
/// wholesale; a fresh run after cancellation is bit-identical to a first-try
/// run. request_cancel() is a plain atomic store: any number of calls, from
/// any thread, concurrently with polls, are safe, and a token cancelled
/// before its first poll makes that poll throw before any work is claimed.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() noexcept = default;
  /// A token that also fires by itself once `deadline` has passed.
  explicit CancellationToken(Clock::time_point deadline) noexcept
      : deadline_(deadline) {}

  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  /// True once request_cancel() was called or the deadline has passed.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed) || expired();
  }
  /// True once the deadline has passed; never for a token without one.
  [[nodiscard]] bool expired() const noexcept {
    return deadline_ != Clock::time_point::max() && Clock::now() >= deadline_;
  }

 private:
  std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_ = Clock::time_point::max();
};

/// The steady-clock time `seconds` from now, for a token's or a socket's
/// deadline. A budget past the clock's range saturates to
/// time_point::max(), a deadline that never passes; a negative one is now.
[[nodiscard]] inline CancellationToken::Clock::time_point deadline_after(
    double seconds) noexcept {
  using Clock = CancellationToken::Clock;
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> budget(std::max(seconds, 0.0));
  return budget < Clock::time_point::max() - now
             ? now + std::chrono::duration_cast<Clock::duration>(budget)
             : Clock::time_point::max();
}

/// Thrown by parallel_for_indexed (and cooperative stall points) when an
/// installed CancellationToken fires.
struct Cancelled : std::runtime_error {
  Cancelled() : std::runtime_error("cancelled: a cancellation token fired") {}
};

/// Install `token` for the lifetime of the guard, nested inside the scopes
/// already installed: loops poll the whole chain, so an outer token (a
/// daemon's drain or session) still reaches loops under an inner one (an
/// attempt's --timeout-sec). Scopes nest last-in, first-out on one thread
/// and each token outlives its scope. The chain is process-wide (the
/// executor's workers and the stream producer walk it), so only one driver
/// run at a time may install tokens. With none installed a poll is one
/// atomic load.
class ScopedCancellationToken {
 public:
  explicit ScopedCancellationToken(const CancellationToken* token) noexcept;
  ~ScopedCancellationToken();
  ScopedCancellationToken(const ScopedCancellationToken&) = delete;
  ScopedCancellationToken& operator=(const ScopedCancellationToken&) = delete;

 private:
  friend bool cancellation_requested() noexcept;
  const CancellationToken* token_;
  const ScopedCancellationToken* outer_;
};

/// True when any installed token has fired. Long serial sections
/// (experiment bodies between parallel loops) may poll this and throw
/// Cancelled themselves to stop sooner.
[[nodiscard]] bool cancellation_requested() noexcept;

/// The stall behind an armed injector's `timeout` action at fault point
/// `point` (executor.task, experiment.body, stream.produce, ...): polls
/// cancellation_requested() every millisecond and throws Cancelled once a
/// token fires. The stall is capped at 5 s so an unsupervised one cannot
/// wedge a run; past the cap it throws fault::InjectedFault.
[[noreturn]] void stall_until_cancelled(std::string_view point);

/// The most threads a pool may hold. vdbench --threads, vdbenchd --threads
/// and a daemon request reject more; VDBENCH_THREADS above it is ignored.
inline constexpr std::size_t kMaxThreads = 256;

/// Fixed-size thread pool with an indexed fork-join primitive.
class ParallelExecutor {
 public:
  /// Create a pool that runs up to `threads` tasks concurrently (the calling
  /// thread participates, so `threads` == 1 means no worker threads at all).
  /// `threads` == 0 picks default_thread_count(). Throws
  /// std::invalid_argument above kMaxThreads, before starting any thread.
  explicit ParallelExecutor(std::size_t threads = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Concurrency of this pool (worker threads + the calling thread).
  [[nodiscard]] std::size_t thread_count() const noexcept;

  /// Run fn(0) .. fn(n-1), blocking until every task finished. Tasks may run
  /// in any order and on any thread; determinism is the caller's contract
  /// (pre-split Rngs, write only to slot i). Every task runs even when one
  /// throws; the exception with the lowest task index is rethrown afterwards,
  /// so the error surfaced is itself independent of the thread count.
  /// n == 0 is a no-op. Calls from inside a task run inline (serially).
  /// When the installed CancellationToken fires, workers stop claiming
  /// tasks and the call throws Cancelled once the in-flight tasks drain.
  void parallel_for_indexed(std::size_t n,
                            const std::function<void(std::size_t)>& fn);

  /// Pool size chosen when none is given explicitly: VDBENCH_THREADS when the
  /// environment variable holds an integer from 1 to kMaxThreads, else
  /// hardware concurrency clamped to [1, kMaxThreads].
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide executor, created once on first use with
/// ParallelExecutor::default_thread_count() threads.
[[nodiscard]] ParallelExecutor& global_executor();

/// Replace the process-wide pool with one of the given size (0 = re-read the
/// default). Intended for tests that verify thread-count invariance; must not
/// race with concurrent parallel_for_indexed calls.
void set_global_threads(std::size_t threads);

/// Convenience: parallel_for_indexed on the process-wide executor.
void parallel_for_indexed(std::size_t n,
                          const std::function<void(std::size_t)>& fn);

}  // namespace vdbench::stats
