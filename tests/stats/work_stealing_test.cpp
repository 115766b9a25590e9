// Work-stealing scheduler tests (run under the tsan ctest label): the
// deque-per-participant scheduler must preserve every contract of the
// shared-counter scheduler it replaced — determinism at any thread count,
// cooperative cancellation between claims, deterministic fault keys,
// every-task-runs + lowest-index-error on failure — while actually
// redistributing an imbalanced sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.h"
#include "stats/parallel.h"
#include "stats/rng.h"

namespace vdbench::stats {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 7, 16};

TEST(WorkStealingTest, ImbalancedSweepIsThreadCountInvariant) {
  // Task cost varies by two orders of magnitude across the range, so with
  // more than one thread the cheap shards drain early and finish the sweep
  // by stealing from the expensive one. The output must not care.
  const auto run_with = [](std::size_t threads) {
    ParallelExecutor exec(threads);
    Rng rng(987654);
    std::vector<Rng> children;
    children.reserve(96);
    for (std::size_t i = 0; i < 96; ++i) children.push_back(rng.split(i));
    std::vector<double> out(96);
    exec.parallel_for_indexed(96, [&](std::size_t i) {
      const int draws = i < 8 ? 4000 : 40;  // front shard is the heavy one
      double acc = 0.0;
      for (int d = 0; d < draws; ++d) acc += children[i].uniform();
      out[i] = acc;
    });
    return out;
  };
  const std::vector<double> serial = run_with(1);
  for (const std::size_t threads : kThreadCounts)
    EXPECT_EQ(serial, run_with(threads)) << "threads=" << threads;
}

TEST(WorkStealingTest, IdleWorkersStealFromABlockedOwnersShard) {
  // Task 0 (front of participant 0's chunk) blocks until the REST of that
  // chunk has run. The owner is stuck inside task 0, so the only way the
  // wait can succeed is other participants stealing tasks 1..3 from the
  // back of the blocked shard.
  ParallelExecutor exec(4);
  constexpr std::size_t kTasks = 16;  // 4 per participant
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<int> shard0_rest{0};
  std::atomic<bool> stolen_while_blocked{false};
  exec.parallel_for_indexed(kTasks, [&](std::size_t i) {
    if (i == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (shard0_rest.load() < 3 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      stolen_while_blocked.store(shard0_rest.load() >= 3);
    } else if (i < 4) {
      ++shard0_rest;
    }
    ++hits[i];
  });
  EXPECT_TRUE(stolen_while_blocked.load())
      << "tasks 1..3 were not stolen while their owner was blocked";
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkStealingTest, EveryTaskRunsAndLowestIndexErrorWinsUnderStealing) {
  for (const std::size_t threads : kThreadCounts) {
    ParallelExecutor exec(threads);
    std::vector<std::atomic<int>> hits(96);
    try {
      exec.parallel_for_indexed(96, [&](std::size_t i) {
        hits[i]++;
        if (i < 8)  // slow down the front shard so the tail gets stolen
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (i == 90) throw std::runtime_error("late");
        if (i == 11) throw std::invalid_argument("early");
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "early");
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " threads=" << threads;
  }
}

TEST(WorkStealingTest, CancellationStopsStealingBetweenClaims) {
  // Fire the token from inside a task while thieves are mid-sweep through
  // a slow shard: workers must stop claiming (owned or stolen alike) and
  // the fork-join call must surface Cancelled, not a partial success.
  ParallelExecutor exec(4);
  CancellationToken token;
  ScopedCancellationToken install(&token);
  std::atomic<int> ran{0};
  EXPECT_THROW(exec.parallel_for_indexed(10000,
                                         [&](std::size_t i) {
                                           if (i == 0) token.request_cancel();
                                           std::this_thread::sleep_for(
                                               std::chrono::microseconds(20));
                                           ++ran;
                                         }),
               Cancelled);
  EXPECT_LT(ran.load(), 10000);
}

TEST(WorkStealingTest, CancelledRunLeavesExecutorReusable) {
  ParallelExecutor exec(7);
  CancellationToken token;
  {
    ScopedCancellationToken install(&token);
    token.request_cancel();
    EXPECT_THROW(exec.parallel_for_indexed(64, [](std::size_t) {}), Cancelled);
  }
  std::atomic<int> ran{0};
  exec.parallel_for_indexed(64, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
}

class WorkStealingFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::global().disarm(); }
};

TEST_F(WorkStealingFaultTest, FaultKeyHitsTheSameTaskAtEveryThreadCount) {
  // The fault site key is the decimal task index — a property of the task,
  // not of whichever shard or thief ran it. The blast radius must be the
  // single keyed task regardless of how the range was partitioned.
  for (const std::size_t threads : kThreadCounts) {
    fault::Injector::global().arm("executor.task=throw@42:1");
    ParallelExecutor exec(threads);
    std::vector<std::atomic<int>> ran(96);
    try {
      exec.parallel_for_indexed(96, [&](std::size_t i) {
        if (i < 8)  // imbalance so task 42 is frequently a stolen task
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran[i]++;
      });
      FAIL() << "expected InjectedFault (threads=" << threads << ")";
    } catch (const fault::InjectedFault& e) {
      EXPECT_NE(std::string(e.what()).find("index 42"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(ran[42].load(), 0) << "threads=" << threads;
    for (std::size_t i = 0; i < ran.size(); ++i) {
      if (i != 42) {
        EXPECT_EQ(ran[i].load(), 1) << "task " << i << " threads=" << threads;
      }
    }
    fault::Injector::global().disarm();
  }
}

}  // namespace
}  // namespace vdbench::stats
