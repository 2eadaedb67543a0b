// Wall-clock timer for the experiment harness's runtime columns.
#ifndef PRIVBASIS_COMMON_TIMER_H_
#define PRIVBASIS_COMMON_TIMER_H_

#include <chrono>

namespace privbasis {

/// Monotonic wall-clock stopwatch. Starts on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction/Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_TIMER_H_
