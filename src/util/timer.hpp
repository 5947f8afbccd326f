// Wall-clock timing helpers for the perf scenarios (e16-e23) and harness
// progress reporting.
#pragma once

#include <chrono>
#include <string>

namespace osched::util {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// "12.3 ms" / "4.56 s" style human-readable duration.
std::string format_duration(double seconds);

}  // namespace osched::util
