// Work-stealing thread pool for the parallel mining paths.
//
// The pool owns `num_threads - 1` worker threads (the thread that waits
// on a group is the remaining thread and always participates). Work is
// distributed as tasks over per-worker deques: an owner pops from the
// back of its own deque (LIFO, cache-friendly for nested spawns) while
// idle workers steal from the front of a victim's deque (FIFO, oldest and
// therefore largest-granularity work first).
//
// Fork-join: a TaskGroup spawns tasks and waits for them; ParallelFor is
// one TaskGroup with a task per index. Groups nest — a task may open its own
// group on the same pool. A waiting thread first helps: it runs pending
// tasks (its group's or anybody's), so nested waits cannot deadlock the
// pool. Only when no task is left to steal does it block on a condition
// variable, which every Push and every group's last completion signal;
// an idle waiter costs no CPU.
//
// Determinism: the pool only decides *which thread* runs a task, never
// what the task computes. All mining-level reproducibility comes from
// per-task seeded Rngs and ordered reductions (see DESIGN.md §7).
#ifndef PFCI_UTIL_THREAD_POOL_H_
#define PFCI_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pfci {

/// Work-stealing pool; see file comment. Thread-safe after construction.
class ThreadPool {
 public:
  /// Creates a pool that runs tasks on up to `num_threads` threads
  /// (including the waiting thread). `num_threads == 0` means
  /// DefaultThreads(); `num_threads == 1` spawns no workers and makes
  /// every task run inline.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that may execute tasks (workers + caller).
  std::size_t num_threads() const { return num_threads_; }

  /// A fork-join scope. Spawn() hands a task to the pool; Wait() (also
  /// run by the destructor) returns once every spawned task has finished,
  /// helping with pending tasks meanwhile. With a null or 1-thread pool,
  /// Spawn() runs the task inline at once, so tasks run in submission
  /// order. Spawn and Wait belong to the thread that owns the group;
  /// spawned tasks may open groups of their own.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool);
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Spawn(std::function<void()> task);
    void Wait();

   private:
    ThreadPool* pool_;  ///< Null when tasks run inline.
    std::atomic<std::size_t> open_{0};
  };

  /// Hardware concurrency, at least 1.
  static std::size_t DefaultThreads();

  /// Lazily constructed process-wide pool with DefaultThreads() threads;
  /// Mine() uses it for requests with num_threads == 0 (the library
  /// default) so that they parallelize without spawning threads per call.
  static ThreadPool& Shared();

 private:
  /// One worker's task deque. Owners pop from the back, thieves from the
  /// front.
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(std::size_t self);

  /// Pops and runs one pending task (own queue first, then steals).
  /// Returns false if every queue was empty.
  bool RunOneTask(std::size_t home);

  /// Pushes a task onto the calling worker's own queue (round-robin for
  /// other threads) and wakes one sleeping thread.
  void Push(std::function<void()> task);

  /// Helps with pending tasks until `open` reaches zero, sleeping on
  /// wake_cv_ whenever nothing can be stolen.
  void WaitUntilZero(const std::atomic<std::size_t>& open);

  /// Wakes every sleeper (the waiter of a group that just completed
  /// among them), under wake_mutex_ so no waiter misses it.
  void NotifyAll();

  std::size_t num_threads_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  /// Guards every sleep on wake_cv_. Workers sleep until a task is
  /// pending or the pool stops; group waiters until a task is pending or
  /// their group is done.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_slot_{0};
};

/// Runs body(i) for every i in [0, count) as one task per index and
/// returns when all calls have completed. Like a TaskGroup, it runs inline
/// in index order when `pool` is null or has one thread. `body` must be
/// safe to invoke concurrently from multiple threads. Reentrant: `body`
/// may itself call ParallelFor on the same pool.
void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& body);

}  // namespace pfci

#endif  // PFCI_UTIL_THREAD_POOL_H_
