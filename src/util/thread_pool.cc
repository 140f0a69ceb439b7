#include "src/util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace pfci {

namespace {

/// The pool whose worker the current thread is (null for every other
/// thread), and that worker's index. A thread outside the pool steals
/// from every queue with equal priority.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;

constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  num_threads_ = std::max<std::size_t>(1, num_threads);
  const std::size_t num_workers = num_threads_ - 1;
  queues_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::DefaultThreads() {
  const unsigned int hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(DefaultThreads());
  return pool;
}

void ThreadPool::NotifyAll() {
  {
    // Pairs with the wait predicates: no sleeper can re-check its
    // predicate between the caller's state change and this notify and
    // then sleep through it.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();
}

void ThreadPool::Push(std::function<void()> task) {
  const std::size_t slot =
      tls_pool == this ? tls_worker
                       : next_slot_.fetch_add(1, std::memory_order_relaxed);
  Queue& queue = *queues_[slot % queues_.size()];
  {
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  // Every sleeper's predicate accepts pending_ > 0, so whichever thread
  // wakes goes stealing.
  wake_cv_.notify_one();
}

bool ThreadPool::RunOneTask(std::size_t home) {
  const std::size_t num_queues = queues_.size();
  std::function<void()> task;
  for (std::size_t k = 0; k < num_queues; ++k) {
    const std::size_t index =
        home == kNotAWorker ? k : (home + k) % num_queues;
    Queue& queue = *queues_[index];
    {
      std::lock_guard<std::mutex> lock(queue.mutex);
      if (queue.tasks.empty()) continue;
      if (index == home) {
        task = std::move(queue.tasks.back());
        queue.tasks.pop_back();
      } else {
        task = std::move(queue.tasks.front());
        queue.tasks.pop_front();
      }
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    task();
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(std::size_t self) {
  tls_pool = this;
  tls_worker = self;
  for (;;) {
    if (RunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) {
      lock.unlock();
      // Drain leftovers so no enqueued task is stranded by shutdown.
      while (RunOneTask(self)) {
      }
      return;
    }
  }
}

void ThreadPool::WaitUntilZero(const std::atomic<std::size_t>& open) {
  const std::size_t home = tls_pool == this ? tls_worker : kNotAWorker;
  while (open.load(std::memory_order_acquire) != 0) {
    // Help first: running pending tasks (ours or anybody's) is what keeps
    // nested waits from deadlocking the pool.
    if (RunOneTask(home)) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this, &open] {
      return open.load(std::memory_order_acquire) == 0 ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
}

ThreadPool::TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool != nullptr && !pool->workers_.empty() ? pool : nullptr) {}

void ThreadPool::TaskGroup::Spawn(std::function<void()> task) {
  if (pool_ == nullptr) {
    task();
    return;
  }
  open_.fetch_add(1, std::memory_order_relaxed);
  ThreadPool* pool = pool_;
  pool->Push([this, pool, task = std::move(task)] {
    task();
    // The group may be destroyed as soon as open_ reaches zero, so only
    // the pool is touched after the decrement.
    if (open_.fetch_sub(1, std::memory_order_acq_rel) == 1) pool->NotifyAll();
  });
}

void ThreadPool::TaskGroup::Wait() {
  if (pool_ != nullptr) pool_->WaitUntilZero(open_);
}

void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  ThreadPool::TaskGroup group(pool);
  for (std::size_t i = 0; i < count; ++i) {
    group.Spawn([&body, i] { body(i); });
  }
}

}  // namespace pfci
