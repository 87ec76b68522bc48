// Two-phase primal simplex for LPs with bounded variables, with a kept
// basis for re-optimization.
//
// Dense tableau implementation sized for the LP relaxations produced by
// the MILP encoding of ReLU networks (hundreds to a few thousand
// columns). Bounded-variable pivoting with bound flips, Dantzig pricing
// with a Bland's-rule anti-cycling fallback, and Phase-1 artificial
// variables for a feasible start. Pricing and the pivot's row
// elimination run as contiguous row loops with every element's operation
// sequence unchanged, so every host and build computes the same pivots
// and bits (DESIGN.md, "The simplex").
//
// lp::Simplex keeps its tableau and basis between solves: a new
// objective re-runs phase 2 from the last basis (optimize), and new
// variable bounds are repaired by dual simplex before phase 2 finishes
// (resolve). SimplexSolver::solve is one cold Simplex and one optimize.
#pragma once

#include <memory>
#include <optional>
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

struct Tableau;

/// One LP over a fixed set of rows whose tableau and basis outlive a
/// solve, so the next LP over the same rows starts from the last basis
/// instead of phase 1. Not thread-safe; one search owns one.
class Simplex {
 public:
  /// Set-up, phase 1 and the drive-out of artificials for `problem`'s
  /// rows at its variable bounds; the objective is optimize()'s.
  /// `problem` must outlive the Simplex with its rows unchanged (a
  /// rebuild reads them again).
  explicit Simplex(const Problem& problem);
  ~Simplex();

  /// Phase 2 for `objective` (one coefficient per structural variable)
  /// from the current basis. The first call after construction or a
  /// rebuild is exactly SimplexSolver::solve's phase 2 and reports the
  /// phase-1 iterations too.
  Solution optimize(const std::vector<double>& objective, bool maximize);

  /// Re-solves the last objective under new structural bounds, warm from
  /// the current basis. Needs the previous optimize/resolve to have ended
  /// optimal or proven infeasible. Every new domain applies at once, and
  /// each changed nonbasic variable moves to the bound its reduced cost
  /// keeps dual feasible; one whose needed bound is infinite is held at
  /// its value (deferred) until dual simplex has restored primal
  /// feasibility. Then the deferred domains open and phase 2 finishes.
  /// Infeasibility found with nothing deferred is a proof and keeps the
  /// basis warm. Returns nullopt (declines) when a deferred variable
  /// would rest inside its new domain, infeasibility showed while one was
  /// deferred, the dual pass hit its step cap, or the warm tableau is not
  /// trusted (a pivot row grew too large, or a row that blocks the dual
  /// pass does not prove infeasibility from the problem's own rows).
  /// After a decline only rebuild() may follow; its iterations are
  /// reported by the next Solution.
  std::optional<Solution> resolve(const std::vector<double>& lower,
                                  const std::vector<double>& upper);

  /// Cold start from the problem's rows at these structural bounds (as
  /// the constructor does at the problem's own), reusing the buffers.
  void rebuild(const std::vector<double>& lower,
               const std::vector<double>& upper);

 private:
  void cold_start();
  Solution finish(SolveStatus phase2);
  std::optional<Solution> decline();
  long take_iterations();

  const Problem& problem_;
  std::unique_ptr<Tableau> t_;
  std::vector<double> objective_;
  std::vector<double> scratch_;  // infeasibility proofs' combined row
  /// The basis satisfies the current bounds (phase 1 succeeded and no
  /// later resolve proved the bounds infeasible).
  bool primal_ok_ = false;
  /// Reduced costs have the optimal signs for the current objective: the
  /// last optimize/resolve ended optimal or in a dual infeasibility proof.
  bool dual_ok_ = false;
  /// A resolve declined; the tableau is unusable until rebuild().
  bool stale_ = false;
  /// Reported instead of solving while !primal_ok_.
  SolveStatus blocked_ = SolveStatus::kInfeasible;
  long iters_ = 0;  // the current solve's iterations
  long spent_ = 0;  // iterations of declined solves, not yet reported
};

/// Solves one LP cold. Holds no state, so one instance may serve
/// concurrent solve() calls; every buffer lives inside the call.
class SimplexSolver {
 public:
  Solution solve(const Problem& problem) const;
};

}  // namespace safenn::lp
