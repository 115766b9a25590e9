// Bounded producer/consumer queue of report chunks — the backpressure seam
// of the streaming evaluation pipeline.
//
// The queue holds at most `capacity` chunks. A producer that outruns the
// consumer BLOCKS in push() on a condition variable (no spinning; the
// backpressure_waits counter records one increment per blocking episode,
// which the test suite uses to assert the no-spin contract). Waits poll the
// process-wide cooperative cancellation chain (stats/parallel.h) at a coarse
// interval, so a blocked producer or consumer honours a fired token or a
// passed deadline by throwing stats::Cancelled — the same discipline the parallel engine's
// task loops follow.
//
// Shutdown protocol:
//  * producer side: close() after the last chunk (pop() then drains and
//    returns nullopt), or fail(ptr) on error (pop() rethrows the producer's
//    exception with its original type, so the supervisor's error taxonomy
//    still classifies injected faults and timeouts correctly);
//  * consumer side: abandon() when the consumer dies — a blocked push()
//    returns false and the producer unwinds instead of blocking forever.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <optional>

#include "core/thread_annotations.h"
#include "stream/record.h"

namespace vdbench::stream {

class ChunkQueue {
 public:
  /// Throws std::invalid_argument when capacity == 0.
  explicit ChunkQueue(std::size_t capacity);

  ChunkQueue(const ChunkQueue&) = delete;
  ChunkQueue& operator=(const ChunkQueue&) = delete;

  /// Enqueue one chunk, blocking while the queue is full. Returns false
  /// when the consumer abandoned the queue (the chunk is dropped and the
  /// producer should stop). Throws stats::Cancelled when the installed
  /// cancellation token fires, std::logic_error after close()/fail().
  [[nodiscard]] bool push(ReportChunk chunk);

  /// Dequeue the next chunk, blocking while the queue is empty and the
  /// producer is still live. Returns nullopt once the queue is closed and
  /// drained. Rethrows the producer's exception after fail(); throws
  /// stats::Cancelled when the cancellation token fires.
  [[nodiscard]] std::optional<ReportChunk> pop();

  /// Producer: no more chunks will arrive (already-queued chunks drain).
  void close();

  /// Producer: the stream ended in an error; pop() rethrows `error` (after
  /// serving nothing further — queued chunks are discarded, a failed
  /// stream's partial results must not be consumed).
  void fail(std::exception_ptr error);

  /// Consumer: stop accepting chunks; blocked and future push() calls
  /// return false immediately.
  void abandon();

  /// Blocking episodes a full queue imposed on push() so far.
  [[nodiscard]] std::uint64_t backpressure_waits() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  // Locking contract is compiler-checked under clang -Wthread-safety: every
  // guarded member below may only be touched while mutex_ is held (the
  // condition variables park on a core::MutexLock, which is BasicLockable).
  mutable core::Mutex mutex_;
  std::condition_variable_any not_full_;
  std::condition_variable_any not_empty_;
  std::deque<ReportChunk> chunks_ VDBENCH_GUARDED_BY(mutex_);
  bool closed_ VDBENCH_GUARDED_BY(mutex_) = false;
  bool abandoned_ VDBENCH_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ VDBENCH_GUARDED_BY(mutex_);
  std::uint64_t backpressure_waits_ VDBENCH_GUARDED_BY(mutex_) = 0;
};

}  // namespace vdbench::stream
