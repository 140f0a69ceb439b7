// One-shot completion signaling for asynchronous run handles.
//
// A CompletionLatch is the minimal rendezvous between a producer that
// finishes exactly once and any number of consumers that wait for it:
// Signal() flips the latch permanently, Wait() blocks until it flips,
// and done() polls without blocking. Unlike a condition variable used
// bare, the latch owns its predicate, so consumers can never miss a
// signal that happened before they started waiting.
//
// This is the primitive RunHandle (src/serve/run_handle.h) is built on:
// the serving layer signals the latch after publishing a finished
// MiningResult, and the publish is ordered before the signal by the
// latch's internal mutex, so a consumer that observed done() == true may
// read the result without further synchronization.
//
// Deliberately not a semaphore and not resettable: a mining run completes
// once, and a resettable primitive would reintroduce the missed-wakeup
// races the latch exists to rule out. All waits are condition-variable
// waits, never sleep polling (see tools/check_layering.py on raw sleeps).
#ifndef PFCI_UTIL_COMPLETION_H_
#define PFCI_UTIL_COMPLETION_H_

#include <condition_variable>
#include <mutex>

namespace pfci {

/// One-shot event: starts unsignaled, Signal() flips it exactly once,
/// waiters (any number, before or after the signal) all see it. Thread-
/// safe; neither copyable nor movable (waiters hold its address).
class CompletionLatch {
 public:
  CompletionLatch() = default;
  CompletionLatch(const CompletionLatch&) = delete;
  CompletionLatch& operator=(const CompletionLatch&) = delete;

  /// Marks the latch done and wakes every waiter. Idempotent: a second
  /// Signal is a no-op, so producer shutdown paths can signal defensively.
  void Signal() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until Signal() has been called (returns immediately if it
  /// already was).
  void Wait() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return done_; });
  }

  /// Non-blocking: whether Signal() has been called. A true return also
  /// orders the producer's pre-Signal writes before the caller's
  /// subsequent reads (acquire via the internal mutex).
  bool done() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool done_ = false;
};

}  // namespace pfci

#endif  // PFCI_UTIL_COMPLETION_H_
