// Two-phase primal simplex for LPs with bounded variables.
//
// Dense tableau implementation sized for the LP relaxations produced by
// the MILP encoding of ReLU networks (hundreds to a few thousand
// columns). Bounded-variable pivoting with bound flips, Dantzig pricing
// with a Bland's-rule anti-cycling fallback, and Phase-1 artificial
// variables for a feasible start. Pricing and the pivot's row
// elimination run as contiguous row loops with every element's operation
// sequence unchanged, so every host and build computes the same pivots
// and bits (DESIGN.md, "The simplex").
#pragma once

#include <vector>

#include "lp/problem.hpp"

namespace safenn::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective in the problem's own sense (max problems report the max).
  double objective = 0.0;
  /// Values of the structural variables (empty unless kOptimal).
  std::vector<double> values;
  long iterations = 0;
};

/// Solves an LP. Holds no state, so one instance may serve concurrent
/// solve() calls; every buffer lives inside the call.
class SimplexSolver {
 public:
  Solution solve(const Problem& problem) const;
};

}  // namespace safenn::lp
