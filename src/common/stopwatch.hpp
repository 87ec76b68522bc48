// Wall-clock timing used by verification benches (Table II reports
// per-instance verification time).
#pragma once

#include <chrono>

namespace safenn {

/// Monotonic wall-clock stopwatch. Started on construction.
class Stopwatch {
 public:
  Stopwatch();

  /// Restart the clock.
  void reset();

  /// Seconds elapsed since construction or last reset().
  double seconds() const;

  /// Milliseconds elapsed.
  double millis() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The instant a solver must stop by. Solver options hold one, so a
/// query fixes a single instant when it starts and every engine and
/// sub-solver it launches is measured against that instant, not against
/// its own start.
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  /// `seconds` from now; non-positive means "no limit". Implicit, so an
  /// option of this type accepts a number of seconds; the clock then
  /// starts at the assignment, not when the solver runs.
  Deadline(double seconds);  // NOLINT(google-explicit-constructor)

  /// True when the wall clock has passed the deadline.
  bool expired() const;

  /// Seconds remaining (clamped at 0); +inf when unlimited.
  double remaining() const;

  /// True when this deadline never expires.
  bool unlimited() const { return unlimited_; }

 private:
  bool unlimited_ = true;
  std::chrono::steady_clock::time_point end_{};
};

}  // namespace safenn
