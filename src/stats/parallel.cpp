#include "stats/parallel.h"

#include "fault/injector.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "stats/env.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vdbench::stats {

namespace {

// Set while a thread is executing tasks of some parallel_for_indexed; nested
// calls detect it and degrade to inline serial execution.
thread_local bool tl_inside_task = false;

// The innermost ScopedCancellationToken; each scope links to the one it
// nests in. Published with release and read with acquire, so a worker that
// sees a scope also sees its token and its outer link.
std::atomic<const ScopedCancellationToken*> g_innermost{nullptr};

// Every task funnels through here so the fault hook and its key discipline
// (decimal task index, making schedules thread-count independent) exist in
// exactly one place, and so every task shows up as one "executor.task"
// span in a trace. Zero-cost when the injector is disarmed; one relaxed
// atomic load (the span site) plus one relaxed fetch_add (the
// tasks.executed counter) when observability is disarmed.
void run_task(const std::function<void(std::size_t)>& fn, std::size_t i) {
  const obs::Span span(obs::names::kExecutorTask);
  fault::Injector& injector = fault::Injector::global();
  if (injector.armed()) {
    switch (injector.hit("executor.task", std::to_string(i))) {
      case fault::Action::kThrow:
      case fault::Action::kIoError:
        throw fault::InjectedFault("injected executor.task fault at index " +
                                   std::to_string(i));
      case fault::Action::kTimeout:
        stall_until_cancelled("executor.task");
      default:
        break;
    }
  }
  fn(i);
  obs::count(obs::Counter::kTasksExecuted);
}

}  // namespace

ScopedCancellationToken::ScopedCancellationToken(
    const CancellationToken* token) noexcept
    : token_(token), outer_(g_innermost.load(std::memory_order_relaxed)) {
  g_innermost.store(this, std::memory_order_release);
}

ScopedCancellationToken::~ScopedCancellationToken() {
  g_innermost.store(outer_, std::memory_order_release);
}

bool cancellation_requested() noexcept {
  for (const ScopedCancellationToken* scope =
           g_innermost.load(std::memory_order_acquire);
       scope != nullptr; scope = scope->outer_)
    if (scope->token_->cancelled()) return true;
  return false;
}

void stall_until_cancelled(std::string_view point) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    if (cancellation_requested()) throw Cancelled();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw fault::InjectedFault("injected " + std::string(point) +
                             " stall expired without cancellation");
}

struct ParallelExecutor::Impl {
  std::size_t thread_count = 1;
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  bool stopping = false;

  // State of the job currently being executed (guarded by mutex; the
  // per-shard index ranges below have their own locks).
  std::uint64_t generation = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t workers_active = 0;

  // Work stealing: the index range [0, n) is pre-partitioned into one
  // contiguous chunk per participant (worker threads own shards
  // 0..thread_count-2, the calling thread owns the last). An owner pops
  // from the FRONT of its shard so each thread still sweeps its chunk in
  // ascending index order (cache-friendly for slot-indexed writes); a
  // thread whose shard is empty scans the other shards in a fixed
  // round-robin order and steals from the BACK, keeping owner and thief
  // on opposite ends of the range. Each shard is guarded by its own
  // mutex — claims are two loads and an increment under an uncontended
  // lock; contention only appears at the end of a shard, exactly when
  // stealing is useful. Because the range is fixed up front, a full empty
  // scan means the job has no unclaimed work and the thread can retire.
  struct Shard {
    std::mutex m;
    std::size_t head = 0;  ///< next unclaimed index
    std::size_t tail = 0;  ///< one past the last unclaimed index
  };
  std::vector<std::unique_ptr<Shard>> shards;

  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();

  static constexpr std::size_t kNoTask =
      std::numeric_limits<std::size_t>::max();

  // Next task for participant `self`: own shard front, else steal from the
  // back of the first non-empty victim in deterministic scan order.
  std::size_t claim(std::size_t self) {
    {
      Shard& own = *shards[self];
      std::lock_guard<std::mutex> lock(own.m);
      if (own.head < own.tail) return own.head++;
    }
    const std::size_t k = shards.size();
    for (std::size_t offset = 1; offset < k; ++offset) {
      Shard& victim = *shards[(self + offset) % k];
      std::lock_guard<std::mutex> lock(victim.m);
      if (victim.head < victim.tail) return --victim.tail;
    }
    return kNoTask;
  }

  // Claim and run tasks until no shard has unclaimed work. Every task runs
  // even after a failure so the propagated (lowest-index) exception does not
  // depend on scheduling — except under cancellation, where remaining tasks
  // are abandoned and the whole computation is discarded anyway.
  void drain(std::size_t self) {
    tl_inside_task = true;
    for (std::size_t i = claim(self); i != kNoTask; i = claim(self)) {
      if (cancellation_requested()) {
        obs::count(obs::Counter::kTasksCancelled);
        obs::instant(obs::names::kExecutorCancel);
        break;
      }
      try {
        run_task(*fn, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
    tl_inside_task = false;
  }

  void worker_loop(std::size_t self) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] {
          return stopping || generation != seen_generation;
        });
        if (stopping) return;
        seen_generation = generation;
      }
      drain(self);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--workers_active == 0) work_done.notify_all();
      }
    }
  }
};

ParallelExecutor::ParallelExecutor(std::size_t threads)
    : impl_(std::make_unique<Impl>()) {
  impl_->thread_count = threads == 0 ? default_thread_count() : threads;
  impl_->shards.reserve(impl_->thread_count);
  for (std::size_t i = 0; i < impl_->thread_count; ++i)
    impl_->shards.push_back(std::make_unique<Impl::Shard>());
  const std::size_t worker_count = impl_->thread_count - 1;
  impl_->workers.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i)
    impl_->workers.emplace_back(
        [impl = impl_.get(), i] { impl->worker_loop(i); });
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
}

std::size_t ParallelExecutor::thread_count() const noexcept {
  return impl_->thread_count;
}

void ParallelExecutor::parallel_for_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  // Serial fallback: single-thread pool, tiny range, or a nested call from
  // inside a task (the fixed pool must not wait on itself). Runs the exact
  // same claim loop so behaviour — including which exception propagates —
  // matches the parallel path.
  if (impl_->thread_count == 1 || n == 1 || tl_inside_task) {
    std::exception_ptr first_error;
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
    const bool was_inside = tl_inside_task;
    tl_inside_task = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (cancellation_requested()) {
        obs::count(obs::Counter::kTasksCancelled);
        obs::instant(obs::names::kExecutorCancel);
        break;
      }
      try {
        run_task(fn, i);
      } catch (...) {
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
    tl_inside_task = was_inside;
    if (cancellation_requested()) throw Cancelled();
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->fn = &fn;
    impl_->n = n;
    // Partition [0, n) into one contiguous chunk per shard; empty chunks
    // (n < thread_count) are fine — those participants go straight to
    // stealing, then retire.
    const std::size_t k = impl_->shards.size();
    for (std::size_t s = 0; s < k; ++s) {
      impl_->shards[s]->head = s * n / k;
      impl_->shards[s]->tail = (s + 1) * n / k;
    }
    impl_->first_error = nullptr;
    impl_->first_error_index = std::numeric_limits<std::size_t>::max();
    impl_->workers_active = impl_->workers.size();
    ++impl_->generation;
  }
  impl_->work_ready.notify_all();

  // The calling thread participates, owning the last shard.
  impl_->drain(impl_->shards.size() - 1);

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->work_done.wait(lock, [&] { return impl_->workers_active == 0; });
    impl_->fn = nullptr;
  }
  // Cancellation outranks task errors: both mean the computation is void,
  // but Cancelled tells the supervisor a token (not the workload) spoke.
  if (cancellation_requested()) throw Cancelled();
  if (impl_->first_error) std::rethrow_exception(impl_->first_error);
}

std::size_t ParallelExecutor::default_thread_count() {
  if (const std::optional<std::uint64_t> env =
          env_uint64_at_least("VDBENCH_THREADS", 1))
    return static_cast<std::size_t>(*env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ParallelExecutor> g_global_executor;

}  // namespace

ParallelExecutor& global_executor() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_executor)
    g_global_executor = std::make_unique<ParallelExecutor>();
  return *g_global_executor;
}

void set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_executor = std::make_unique<ParallelExecutor>(threads);
}

void parallel_for_indexed(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  global_executor().parallel_for_indexed(n, fn);
}

}  // namespace vdbench::stats
