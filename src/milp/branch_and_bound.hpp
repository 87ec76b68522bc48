// Branch-and-bound MILP solver.
//
// Best-bound node selection with depth tie-breaking, most-fractional
// branching, a fix-and-round primal heuristic, and wall-clock time limits
// (Table II's 4x60 row times out in the paper too — time-limit handling
// is part of the reproduced behaviour, not an afterthought). A decision
// threshold lets a caller that only asks "is the optimum beyond t?" stop
// as soon as the dual bound answers it, instead of proving the optimum.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include "common/stopwatch.hpp"
#include "lp/simplex.hpp"
#include "milp/model.hpp"

namespace safenn::milp {

enum class MilpStatus {
  kOptimal,            // incumbent proven optimal within gap_tol
  kInfeasible,         // no integral solution exists
  kUnbounded,          // LP relaxation unbounded
  kTimeLimitFeasible,  // deadline hit; best incumbent returned
  kTimeLimitNoSolution,// deadline hit before any incumbent was found
  kNodeLimit,
  kThresholdReached,   // best_bound reached BnbOptions::decision_threshold
};

struct MilpResult {
  MilpStatus status = MilpStatus::kTimeLimitNoSolution;
  double objective = 0.0;   // incumbent objective (problem sense)
  double best_bound = 0.0;  // proven dual bound (problem sense)
  std::vector<double> values;
  long nodes_explored = 0;
  long lp_iterations = 0;
  double seconds = 0.0;
  /// True when the solve stopped because BnbOptions::cancel was set (the
  /// status is then one of the time-limit statuses). objective and
  /// best_bound remain sound snapshots of the interrupted search.
  bool cancelled = false;

  bool has_solution() const {
    return status == MilpStatus::kOptimal ||
           status == MilpStatus::kTimeLimitFeasible ||
           status == MilpStatus::kNodeLimit ||
           (status == MilpStatus::kThresholdReached && !values.empty());
  }

  /// Relative optimality gap |objective - best_bound| / max(1, |objective|).
  double gap() const;
};

struct BnbOptions {
  /// Absolute stop instant (assigning seconds starts the clock there;
  /// <= 0: unlimited). Callers that encode first fix it before encoding,
  /// so the encoding counts against the same limit.
  Deadline time_limit_seconds;
  long max_nodes = 0;  // <= 0: unlimited
  /// Decision threshold t (problem sense): before each node pop, stop
  /// with kThresholdReached once the proven dual bound is no better than
  /// t (<= t when maximizing). That bound is the best open estimate,
  /// raised to the incumbent and to the external cutoff once one pruned
  /// a node, so best_bound is sound — but not the optimum's bound the
  /// search would reach. Unset: solve to optimality.
  std::optional<double> decision_threshold;
  double integrality_tol = 1e-6;
  double relative_gap_tol = 1e-9;
  /// Run the fix-and-round primal heuristic every N nodes (0 disables).
  long heuristic_interval = 50;
  /// Called whenever a better incumbent is found.
  std::function<void(const MilpResult&)> on_incumbent;
  /// Optional known-feasible full assignment used as the starting
  /// incumbent (e.g. a concrete network execution for ReLU encodings).
  /// Checked for row feasibility and integrality before use.
  std::vector<double> initial_solution;
  /// Optional per-variable branching priority (higher = branch earlier
  /// among fractional candidates; fractionality breaks ties). For ReLU
  /// encodings, early-layer phase binaries get high priority because
  /// fixing them stabilizes everything downstream.
  std::vector<double> branch_priority;
  /// Cooperative cancellation: polled (with the deadline) before every
  /// node. When it fires, the solve returns a time-limit status with
  /// MilpResult::cancelled set.
  const std::atomic<bool>* cancel = nullptr;
  /// External objective cutoff (problem sense): a value proven feasible
  /// *outside* this solve — e.g. a concrete network execution found by a
  /// racing portfolio peer. Polled before every node, like the deadline;
  /// nodes whose relaxation cannot beat it are pruned, exactly like an
  /// incumbent, but it never becomes `objective` (there is no assignment
  /// for it here). The reported best_bound is clamped so it stays a
  /// sound bound on the true optimum: a pruned subtree is dominated by
  /// the cutoff value, which is itself achievable. Return -inf (maximize)
  /// / +inf (minimize) when no external value is known.
  std::function<double()> external_cutoff;
};

class BranchAndBound {
 public:
  explicit BranchAndBound(BnbOptions options = {});

  MilpResult solve(const Model& model) const;

 private:
  BnbOptions options_;
};

}  // namespace safenn::milp
