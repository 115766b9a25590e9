#include "stats/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.h"
#include "stats/rng.h"

namespace vdbench::stats {
namespace {

TEST(ParallelExecutorTest, RunsEveryIndexExactlyOnce) {
  ParallelExecutor exec(4);
  std::vector<std::atomic<int>> hits(100);
  exec.parallel_for_indexed(100, [&](std::size_t i) { hits[i]++; });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutorTest, ZeroTasksIsNoOp) {
  ParallelExecutor exec(4);
  bool called = false;
  exec.parallel_for_indexed(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelExecutorTest, FewerTasksThanThreads) {
  ParallelExecutor exec(8);
  std::vector<std::atomic<int>> hits(3);
  exec.parallel_for_indexed(3, [&](std::size_t i) { hits[i]++; });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutorTest, SingleThreadPoolRunsInline) {
  ParallelExecutor exec(1);
  EXPECT_EQ(exec.thread_count(), 1u);
  std::vector<int> order;
  exec.parallel_for_indexed(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // safe: inline serial execution
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutorTest, ExceptionFromTaskPropagates) {
  ParallelExecutor exec(4);
  EXPECT_THROW(
      exec.parallel_for_indexed(
          16,
          [&](std::size_t i) {
            if (i == 7) throw std::runtime_error("task 7 failed");
          }),
      std::runtime_error);
}

TEST(ParallelExecutorTest, LowestIndexExceptionWinsAndAllTasksRun) {
  for (const std::size_t threads : {1u, 4u}) {
    ParallelExecutor exec(threads);
    std::vector<std::atomic<int>> hits(32);
    try {
      exec.parallel_for_indexed(32, [&](std::size_t i) {
        hits[i]++;
        if (i == 20) throw std::runtime_error("late");
        if (i == 5) throw std::invalid_argument("early");
      });
      FAIL() << "expected an exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "early");
    }
    // Failure must not cancel the sweep: every slot was still visited.
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelExecutorTest, ExecutorIsReusableAfterException) {
  ParallelExecutor exec(4);
  EXPECT_THROW(exec.parallel_for_indexed(
                   4, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> sum{0};
  exec.parallel_for_indexed(10, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelExecutorTest, NestedCallsRunInline) {
  ParallelExecutor exec(4);
  std::vector<std::atomic<int>> hits(8 * 8);
  exec.parallel_for_indexed(8, [&](std::size_t outer) {
    // A nested fan-out on the same fixed pool must not deadlock; it runs
    // inline on the worker.
    exec.parallel_for_indexed(8, [&](std::size_t inner) {
      hits[outer * 8 + inner]++;
    });
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutorTest, IndexedRngSplitIsThreadCountInvariant) {
  // The canonical usage pattern: pre-split children in index order, write
  // to slot i. The result must be identical for every pool size.
  const auto run_with = [](std::size_t threads) {
    ParallelExecutor exec(threads);
    Rng rng(12345);
    std::vector<Rng> children;
    children.reserve(64);
    for (std::size_t i = 0; i < 64; ++i) children.push_back(rng.split(i));
    std::vector<double> out(64);
    exec.parallel_for_indexed(64, [&](std::size_t i) {
      double acc = 0.0;
      for (int d = 0; d < 100; ++d) acc += children[i].uniform();
      out[i] = acc;
    });
    return out;
  };
  const std::vector<double> serial = run_with(1);
  EXPECT_EQ(serial, run_with(2));
  EXPECT_EQ(serial, run_with(8));
}

TEST(ParallelExecutorTest, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(ParallelExecutor::default_thread_count(), 1u);
}

TEST(ParallelExecutorTest, PoolLargerThanTheCapIsRejected) {
  EXPECT_THROW(ParallelExecutor(kMaxThreads + 1), std::invalid_argument);
}

TEST(ParallelExecutorTest, DefaultThreadCountIgnoresVdbenchThreadsAboveTheCap) {
  const char* saved = std::getenv("VDBENCH_THREADS");
  const std::optional<std::string> restore =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  EXPECT_EQ(::setenv("VDBENCH_THREADS", "257", 1), 0);
  EXPECT_LE(ParallelExecutor::default_thread_count(), kMaxThreads);
  EXPECT_EQ(::setenv("VDBENCH_THREADS", "3", 1), 0);
  EXPECT_EQ(ParallelExecutor::default_thread_count(), 3u);
  if (restore.has_value())
    ::setenv("VDBENCH_THREADS", restore->c_str(), 1);
  else
    ::unsetenv("VDBENCH_THREADS");
}

TEST(ParallelExecutorTest, BackToBackCallsEachRunEveryIndexOnce) {
  // Every call publishes a fresh job on the caller's stack right after the
  // previous one returned; a worker that still held the old job would run
  // an index twice or miss one.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    ParallelExecutor exec(threads);
    for (std::size_t call = 0; call < 2000; ++call) {
      const std::size_t n = 1 + call % 5;
      std::vector<std::atomic<int>> hits(n);
      const bool fail = call % 3 == 0;
      try {
        exec.parallel_for_indexed(n, [&](std::size_t i) {
          hits[i]++;
          if (fail && i + 2 >= n) throw std::out_of_range(std::to_string(i));
        });
        EXPECT_FALSE(fail) << "call " << call << " threads=" << threads;
      } catch (const std::out_of_range& e) {
        EXPECT_TRUE(fail);
        EXPECT_EQ(e.what(), std::to_string(n < 2 ? 0 : n - 2))
            << "call " << call << " threads=" << threads;
      }
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " call " << call << " threads=" << threads;
    }
  }
}

TEST(GlobalExecutorTest, SetGlobalThreadsReplacesPool) {
  set_global_threads(2);
  EXPECT_EQ(global_executor().thread_count(), 2u);
  std::vector<std::atomic<int>> hits(10);
  parallel_for_indexed(10, [&](std::size_t i) { hits[i]++; });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  set_global_threads(0);  // back to the environment/hardware default
  EXPECT_GE(global_executor().thread_count(), 1u);
}

TEST(ParallelExecutorTest, SetGlobalThreadsKeepsAPoolOfTheSameSize) {
  set_global_threads(2);
  const ParallelExecutor* pool = &global_executor();
  set_global_threads(2);
  EXPECT_EQ(&global_executor(), pool);
  set_global_threads(3);
  EXPECT_EQ(global_executor().thread_count(), 3u);
  set_global_threads(0);  // 0 is the default size, resolved before comparing
  pool = &global_executor();
  set_global_threads(ParallelExecutor::default_thread_count());
  EXPECT_EQ(&global_executor(), pool);
}

// --- cooperative cancellation --------------------------------------------

TEST(CancellationTest, NoTokenInstalledMeansNeverCancelled) {
  EXPECT_FALSE(cancellation_requested());
}

TEST(CancellationTest, ScopedTokenInstallsAndRestores) {
  CancellationToken token;
  {
    ScopedCancellationToken install(&token);
    EXPECT_FALSE(cancellation_requested());
    token.request_cancel();
    EXPECT_TRUE(cancellation_requested());
  }
  EXPECT_FALSE(cancellation_requested());  // restored on scope exit
}

TEST(CancellationTest, DoubleCancelIsIdempotent) {
  // The header contract: request_cancel() any number of times, from any
  // thread, is a no-op beyond the first. Teardown racing a watchdog must
  // be safe by contract, so hammer the token from several threads at once.
  CancellationToken token;
  token.request_cancel();
  token.request_cancel();  // same-thread double cancel
  EXPECT_TRUE(token.cancelled());
  std::vector<std::thread> racers;
  for (int t = 0; t < 4; ++t)
    racers.emplace_back([&token] {
      for (int i = 0; i < 1000; ++i) token.request_cancel();
    });
  for (std::thread& racer : racers) racer.join();
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTest, AnOuterTokenReachesLoopsUnderAnInnerToken) {
  // A daemon session's token stays installed while an attempt installs its
  // own: cancelling the outer one must still stop the inner loops, on the
  // workers too, and uninstalling the inner one must leave the outer one.
  ParallelExecutor executor(4);
  CancellationToken outer;
  const ScopedCancellationToken install_outer(&outer);
  {
    CancellationToken inner;
    const ScopedCancellationToken install_inner(&inner);
    EXPECT_FALSE(cancellation_requested());
    std::atomic<int> ran{0};
    EXPECT_THROW(executor.parallel_for_indexed(10000,
                                               [&](std::size_t i) {
                                                 if (i == 0)
                                                   outer.request_cancel();
                                                 std::this_thread::sleep_for(
                                                     std::chrono::
                                                         microseconds(10));
                                                 ++ran;
                                               }),
                 Cancelled);
    EXPECT_LT(ran.load(), 10000);
    EXPECT_FALSE(inner.cancelled());
  }
  EXPECT_TRUE(cancellation_requested());
}

TEST(CancellationTest, ADeadlineFiresWithoutAWatchdog) {
  // No thread cancels this token: its deadline alone stops the loop.
  ParallelExecutor executor(4);
  const CancellationToken token(std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(50));
  const ScopedCancellationToken install(&token);
  std::atomic<int> ran{0};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(executor.parallel_for_indexed(1u << 20,
                                             [&](std::size_t) {
                                               std::this_thread::sleep_for(
                                                   std::chrono::
                                                       microseconds(50));
                                               ++ran;
                                             }),
               Cancelled);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_LT(ran.load(), 1 << 20);
  EXPECT_TRUE(token.expired());
  EXPECT_TRUE(token.cancelled());
  const CancellationToken later(std::chrono::steady_clock::now() +
                                std::chrono::hours(1));
  EXPECT_FALSE(later.cancelled());
  EXPECT_FALSE(CancellationToken().expired());  // no deadline, never expires
}

TEST(CancellationTest, DeadlineAfterSaturatesPastTheClocksRange) {
  using Clock = CancellationToken::Clock;
  EXPECT_EQ(deadline_after(1e20), Clock::time_point::max());
  EXPECT_EQ(deadline_after(std::numeric_limits<double>::infinity()),
            Clock::time_point::max());
  EXPECT_FALSE(CancellationToken(deadline_after(1e20)).expired());
  const Clock::time_point before = Clock::now();
  const Clock::time_point now = deadline_after(0.0);
  EXPECT_GE(now, before);
  EXPECT_LE(now, Clock::now());
  EXPECT_TRUE(CancellationToken(deadline_after(0.0)).expired());
  const Clock::time_point hour = deadline_after(3600.0);
  EXPECT_GE(hour - before, std::chrono::seconds(3600));
  EXPECT_LT(hour - before, std::chrono::seconds(3660));
}

TEST(CancellationTest, CancelBeforeInstallIsObservedOnFirstPoll) {
  // Cancel-before-start: the token fires before it is even installed, and
  // the very first poll after installation sees it.
  CancellationToken token;
  token.request_cancel();
  ScopedCancellationToken install(&token);
  EXPECT_TRUE(cancellation_requested());
}

TEST(CancellationTest, PreCancelledTokenThrowsCancelledImmediately) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ParallelExecutor executor(threads);
    CancellationToken token;
    ScopedCancellationToken install(&token);
    token.request_cancel();
    std::atomic<int> ran{0};
    EXPECT_THROW(
        executor.parallel_for_indexed(64, [&](std::size_t) { ++ran; }),
        Cancelled);
    EXPECT_EQ(ran.load(), 0);  // workers never claimed a task
  }
}

TEST(CancellationTest, MidRunCancelDrainsAndThrowsCancelled) {
  ParallelExecutor executor(4);
  CancellationToken token;
  ScopedCancellationToken install(&token);
  std::atomic<int> ran{0};
  EXPECT_THROW(executor.parallel_for_indexed(10000,
                                             [&](std::size_t i) {
                                               if (i == 0)
                                                 token.request_cancel();
                                               std::this_thread::sleep_for(
                                                   std::chrono::
                                                       microseconds(10));
                                               ++ran;
                                             }),
               Cancelled);
  EXPECT_LT(ran.load(), 10000);  // stopped claiming well before the end
}

TEST(CancellationTest, CancellationOutranksTaskErrors) {
  // When the watchdog fired AND a task threw, the supervisor must see
  // Cancelled — the task error on a cancelled run is scheduling noise.
  ParallelExecutor executor(2);
  CancellationToken token;
  ScopedCancellationToken install(&token);
  EXPECT_THROW(executor.parallel_for_indexed(100,
                                             [&](std::size_t i) {
                                               token.request_cancel();
                                               if (i % 2 == 0)
                                                 throw std::runtime_error(
                                                     "task error");
                                             }),
               Cancelled);
}

// --- executor.task fault injection ---------------------------------------

class ExecutorFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::global().disarm(); }
};

TEST_F(ExecutorFaultTest, KeyedThrowFaultHitsTheSameTaskAtAnyThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    fault::Injector::global().arm("executor.task=throw@17:1");
    ParallelExecutor executor(threads);
    std::vector<int> ran(64, 0);
    try {
      executor.parallel_for_indexed(64, [&](std::size_t i) { ran[i] = 1; });
      FAIL() << "expected InjectedFault";
    } catch (const fault::InjectedFault& e) {
      EXPECT_NE(std::string(e.what()).find("index 17"), std::string::npos);
    }
    // Deterministic blast radius: exactly task 17 was replaced by the
    // fault; every other task still ran (the executor drains on error).
    EXPECT_EQ(ran[17], 0);
    for (std::size_t i = 0; i < 64; ++i) {
      if (i != 17) {
        EXPECT_EQ(ran[i], 1) << "task " << i;
      }
    }
    fault::Injector::global().disarm();
  }
}

TEST_F(ExecutorFaultTest, DisarmedInjectorAddsNoFaults) {
  ParallelExecutor executor(4);
  std::atomic<int> ran{0};
  executor.parallel_for_indexed(256, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 256);
}

}  // namespace
}  // namespace vdbench::stats
