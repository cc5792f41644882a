// Wall-clock stopwatch — the plain timing half of the obs subsystem.
//
// Moved here from core/stopwatch.hpp so the repo has exactly one timing
// utility: Stopwatch for "how long did this take" values that feed results
// (e.g. §IV-E overhead numbers), and obs::Span (trace.hpp) when the same
// interval should also appear in the Chrome trace.
#pragma once

#include <chrono>

namespace tdfm::obs {

/// Monotonic stopwatch; starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  /// Seconds elapsed since construction.
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace tdfm::obs
