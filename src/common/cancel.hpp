// Cooperative cancellation for long-running solvers.
//
// Every search engine in the repo (MILP branch-and-bound, input-splitting
// verification, CDCL SAT) and the set-up phases in front of them (the
// MILP encoding's bound-tightening LPs, the SAT circuit build) run loops
// whose exits are a wall-clock deadline, engine-specific budgets and, in
// a portfolio race, a peer that has already decided the query.
// CancelToken is the one place that decides when to stop on time and why:
//
//   - an optional external flag (one acquire load), and
//   - an optional Deadline, an absolute instant fixed once per query, so
//     set-up time counts against the same limit as the search.
//
// Polling convention (documented here so every engine agrees): both are
// checked on every call. A steady_clock read costs tens of nanoseconds,
// while the units engines poll between cost micro- to milliseconds: one
// branch-and-bound node, one SAT decision or conflict, one neuron of the
// MILP bound tightening or of the SAT circuit build, one synchronous
// round of input splitting (workers poll check_now() before each box).
// A stop therefore lands within one such unit of the flag or the clock.
//
// The cause of the stop is sticky and typed: once should_stop() has
// returned true, cause() reports whether the deadline or the external
// flag fired, and the token keeps returning true.
#pragma once

#include <atomic>

#include "common/stopwatch.hpp"

namespace safenn {

/// Why a CancelToken told its engine to stop.
enum class StopCause {
  kNone,       // still running
  kDeadline,   // wall-clock limit hit
  kCancelled,  // external flag set (e.g. a portfolio peer decided)
};

inline const char* to_string(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "none";
    case StopCause::kDeadline: return "deadline";
    case StopCause::kCancelled: return "cancelled";
  }
  return "?";
}

/// Deadline + external-flag poll. One token per solve call (it latches
/// the stop cause); the external flag itself may be shared by any number
/// of tokens and writer threads.
class CancelToken {
 public:
  /// Never stops: no deadline, no flag.
  CancelToken() = default;

  /// An unlimited `deadline` never fires; `cancel` may be null.
  explicit CancelToken(Deadline deadline,
                       const std::atomic<bool>* cancel = nullptr)
      : deadline_(deadline), cancel_(cancel) {}

  /// Polls the flag, then the clock. Returns true once either fires, and
  /// keeps returning true afterwards. Owning thread only.
  bool should_stop() {
    if (cause_ == StopCause::kNone) cause_ = poll();
    return cause_ != StopCause::kNone;
  }

  /// The same poll without latching the cause: safe to call concurrently
  /// from worker threads while the owner keeps calling should_stop().
  bool check_now() const { return poll() != StopCause::kNone; }

  StopCause cause() const { return cause_; }

 private:
  StopCause poll() const {
    if (cancel_ && cancel_->load(std::memory_order_acquire)) {
      return StopCause::kCancelled;
    }
    return deadline_.expired() ? StopCause::kDeadline : StopCause::kNone;
  }

  Deadline deadline_;
  const std::atomic<bool>* cancel_ = nullptr;
  StopCause cause_ = StopCause::kNone;
};

}  // namespace safenn
