// ThreadPool: fork-join groups run every task exactly once at any thread
// count, a null or 1-thread pool runs tasks inline in submission order, and a
// thread waiting on a group sleeps instead of spinning.
#include <sys/resource.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/thread_pool.h"

namespace pfci {
namespace {

constexpr std::size_t kFanout = 4;
constexpr std::size_t kDepth = 4;

/// Number of nodes in a complete kFanout-ary tree of kDepth levels below
/// the root (the root included).
std::size_t TreeSize() {
  std::size_t total = 0;
  std::size_t level = 1;
  for (std::size_t d = 0; d <= kDepth; ++d) {
    total += level;
    level *= kFanout;
  }
  return total;
}

/// Visits node `id` (heap numbering) and forks its children on `pool`,
/// joining them before returning. Odd levels fork through a TaskGroup,
/// even levels through ParallelFor, so both entry points nest inside
/// each other.
void VisitTree(ThreadPool& pool, std::size_t id, std::size_t depth,
               std::vector<std::atomic<int>>& visits) {
  visits[id].fetch_add(1, std::memory_order_relaxed);
  if (depth == kDepth) return;
  const auto child = [&, id, depth](std::size_t k) {
    VisitTree(pool, id * kFanout + 1 + k, depth + 1, visits);
  };
  if (depth % 2 == 1) {
    ThreadPool::TaskGroup group(&pool);
    for (std::size_t k = 0; k < kFanout; ++k) {
      group.Spawn([&child, k] { child(k); });
    }
    group.Wait();
  } else {
    ParallelFor(&pool, kFanout, child);
  }
}

TEST(ThreadPool, NestedForkJoinRunsEveryTaskExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> visits(TreeSize());
    VisitTree(pool, 0, 0, visits);
    for (std::size_t id = 0; id < visits.size(); ++id) {
      ASSERT_EQ(visits[id].load(), 1) << "node " << id;
    }
  }
}

TEST(ThreadPool, ManySmallGroupsNeverHang) {
  // A lost wakeup would leave some Wait() asleep forever; thousands of
  // short groups give every interleaving of "last task finishes" and
  // "waiter goes to sleep" a chance to happen.
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  for (int round = 0; round < 2000; ++round) {
    ThreadPool::TaskGroup group(&pool);
    for (int k = 0; k < 3; ++k) {
      group.Spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~TaskGroup waits.
  EXPECT_EQ(ran.load(), 6000u);
}

TEST(ThreadPool, InlinePoolsRunTasksInSubmissionOrder) {
  ThreadPool single(1);
  for (ThreadPool* pool : {&single, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(pool == nullptr ? "null pool" : "1-thread pool");
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    ThreadPool::TaskGroup group(pool);
    for (int k = 0; k < 5; ++k) {
      group.Spawn([&, k] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(k);
        // Nested spawns also run at once, depth-first.
        ThreadPool::TaskGroup inner(pool);
        inner.Spawn([&, k] { order.push_back(100 + k); });
      });
      // Inline means done by the time Spawn returns.
      ASSERT_EQ(order.size(), 2u * (k + 1));
    }
    group.Wait();
    EXPECT_EQ(order,
              (std::vector<int>{0, 100, 1, 101, 2, 102, 3, 103, 4, 104}));

    std::vector<std::size_t> indices;
    ParallelFor(pool, 4, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      indices.push_back(i);
    });
    EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2, 3}));
  }
}

#ifdef RUSAGE_THREAD
double ThreadCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}
#endif

TEST(ThreadPool, WaiterSleepsWhileAnotherThreadRunsTheTask) {
#ifndef RUSAGE_THREAD
  GTEST_SKIP() << "per-thread CPU accounting needs RUSAGE_THREAD";
#else
  // One worker. The task starts on it before the caller waits, so the
  // caller has nothing to help with and must block until completion.
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  ThreadPool::TaskGroup group(&pool);
  group.Spawn([&started] {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = ThreadCpuSeconds();
  group.Wait();
  const double cpu = ThreadCpuSeconds() - cpu_start;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  EXPECT_GT(wall, 0.1);
  // A yield loop burns the whole wait (~0.2 s) in user+system time.
  EXPECT_LT(cpu, 0.02) << "waited " << wall << " s";
#endif
}

TEST(ThreadPool, IdleWorkersUseNoCpu) {
  ThreadPool pool(4);
  ParallelFor(&pool, 8, [](std::size_t) {});  // Workers have run and slept.
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  const double cpu = seconds(after.ru_utime) - seconds(before.ru_utime) +
                     seconds(after.ru_stime) - seconds(before.ru_stime);
  // Three spinning workers would burn ~0.6 s; the slack covers sanitizer
  // runtime threads.
  EXPECT_LT(cpu, 0.05);
}

}  // namespace
}  // namespace pfci
