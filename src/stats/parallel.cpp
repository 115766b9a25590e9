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

// One parallel_for_indexed call: the range [0, n), the one counter every
// participant claims indices from, and the lowest-index error. It lives on
// the calling thread's stack; the caller waits for every worker to leave it
// before returning.
struct Job {
  const std::function<void(std::size_t)>& fn;
  const std::size_t n;
  std::atomic<std::size_t> next{0};

  std::mutex error_mutex{};
  std::exception_ptr first_error{};
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();

  // Claim and run tasks until the range is exhausted. Every task runs even
  // after a failure so the propagated (lowest-index) exception does not
  // depend on scheduling — except under cancellation, where remaining tasks
  // are abandoned and the whole computation is discarded anyway.
  void work() {
    const bool was_inside = tl_inside_task;
    tl_inside_task = true;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (cancellation_requested()) {
        obs::count(obs::Counter::kTasksCancelled);
        obs::instant(obs::names::kExecutorCancel);
        break;
      }
      try {
        run_task(fn, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
    tl_inside_task = was_inside;
  }

  // Called once every participant has left work(). Cancellation outranks
  // task errors: both mean the computation is void, but Cancelled tells the
  // supervisor a token (not the workload) spoke.
  void finish() const {
    if (cancellation_requested()) throw Cancelled();
    if (first_error) std::rethrow_exception(first_error);
  }
};

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

  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  bool stopping = false;

  // The job being executed (guarded by mutex); each call publishes its own
  // under a new generation.
  std::uint64_t generation = 0;
  Job* job = nullptr;
  std::size_t workers_active = 0;

  std::vector<std::thread> workers;

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      Job* current = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] {
          return stopping || generation != seen_generation;
        });
        if (stopping) return;
        seen_generation = generation;
        current = job;
      }
      current->work();
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
  if (impl_->thread_count > kMaxThreads)
    throw std::invalid_argument("ParallelExecutor: more than " +
                                std::to_string(kMaxThreads) + " threads");
  const std::size_t worker_count = impl_->thread_count - 1;
  impl_->workers.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i)
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
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
  Job job{fn, n};

  // A one-thread pool, a one-task range and a nested call from inside a
  // task (the fixed pool must not wait on itself) leave the workers asleep:
  // the calling thread runs the job's loop alone.
  if (impl_->thread_count == 1 || n == 1 || tl_inside_task) {
    job.work();
    job.finish();
    return;
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = &job;
    impl_->workers_active = impl_->workers.size();
    ++impl_->generation;
  }
  impl_->work_ready.notify_all();
  job.work();  // the calling thread participates
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->work_done.wait(lock, [&] { return impl_->workers_active == 0; });
    impl_->job = nullptr;
  }
  job.finish();
}

std::size_t ParallelExecutor::default_thread_count() {
  if (const std::optional<std::uint64_t> env =
          env_uint64_at_least("VDBENCH_THREADS", 1);
      env && *env <= kMaxThreads)
    return static_cast<std::size_t>(*env);
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 kMaxThreads);
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
  if (threads == 0) threads = ParallelExecutor::default_thread_count();
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_executor || g_global_executor->thread_count() != threads)
    g_global_executor = std::make_unique<ParallelExecutor>(threads);
}

void parallel_for_indexed(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  global_executor().parallel_for_indexed(n, fn);
}

}  // namespace vdbench::stats
