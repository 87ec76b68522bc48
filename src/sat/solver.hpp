// CDCL SAT solver.
//
// Standard architecture: two-watched-literal propagation, first-UIP
// conflict analysis with non-chronological backjumping, VSIDS-style
// activity decision heuristic, phase saving, and Luby restarts. Sized for
// the CNFs produced by bit-blasting quantized networks (Sec. IV(ii)).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/stopwatch.hpp"
#include "sat/cnf.hpp"

namespace safenn::sat {

enum class SatResult { kSat, kUnsat, kUnknown };

struct SolverOptions {
  /// Abort with kUnknown after this many conflicts (0: unlimited).
  std::int64_t max_conflicts = 0;
  /// Absolute stop instant (assigning seconds starts the clock there;
  /// <= 0: unlimited). Clause loading and, in the quantized-network
  /// encoder, the circuit build count against it.
  Deadline time_limit_seconds;
  double var_decay = 0.95;
  /// Cooperative cancellation (portfolio): polled with the deadline
  /// before every decision or conflict; a fired flag returns kUnknown
  /// exactly like a timeout.
  const std::atomic<bool>* cancel = nullptr;
};

struct SolverStats {
  std::int64_t decisions = 0;
  std::int64_t conflicts = 0;
  std::int64_t propagations = 0;
  std::int64_t restarts = 0;
  std::int64_t learned_clauses = 0;
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  /// Solves the formula; `assumptions` are literals forced true for this
  /// call only (solver is single-shot: build a new Solver per query).
  SatResult solve(const Cnf& cnf, const std::vector<Lit>& assumptions = {});

  /// Value of `v` in the satisfying assignment (valid after kSat).
  bool model_value(Var v) const;

  /// Full model as a vector indexed by variable (index 0 unused).
  const std::vector<char>& model() const { return model_; }

  const SolverStats& stats() const { return stats_; }

 private:
  SolverOptions options_;
  SolverStats stats_;
  std::vector<char> model_;
};

}  // namespace safenn::sat
