// Wall-clock stopwatch used by the experiment harness.
#ifndef PFCI_UTIL_STOPWATCH_H_
#define PFCI_UTIL_STOPWATCH_H_

#include <chrono>

namespace pfci {

/// Measures elapsed wall-clock time. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch from zero.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pfci

#endif  // PFCI_UTIL_STOPWATCH_H_
