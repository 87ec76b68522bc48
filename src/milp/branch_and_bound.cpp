#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "lp/simplex.hpp"

namespace safenn::milp {
namespace {

/// Warm node solves between two cold rebuilds of the search's LP. Every
/// pivot leaves a little rounding in the kept tableau, and a rebuild from
/// the rows resets it; at one rebuild per 64 warm solves the rebuilds
/// cost a few percent of the search's simplex iterations.
constexpr long kWarmSolvesPerRebuild = 64;

/// A search node: bound overrides accumulated along its branch path plus
/// the parent's LP bound (an optimistic estimate until its own LP runs).
/// It stores no basis: the search's one lp::Simplex carries the last
/// node's basis to the next.
struct Node {
  std::vector<std::pair<int, double>> lower_overrides;
  std::vector<std::pair<int, double>> upper_overrides;
  double estimate = 0.0;  // parent LP objective (problem sense)
  int depth = 0;
  long id = 0;
};

}  // namespace

double MilpResult::gap() const {
  const double denom = std::max(1.0, std::abs(objective));
  return std::abs(objective - best_bound) / denom;
}

BranchAndBound::BranchAndBound(BnbOptions options)
    : options_(std::move(options)) {}

MilpResult BranchAndBound::solve(const Model& model) const {
  const lp::Problem& base = model.problem();
  const bool maximize = model.maximize();
  const double sign = maximize ? 1.0 : -1.0;
  // better(a, b): a is a strictly better objective than b in problem sense.
  auto better = [sign](double a, double b) { return sign * (a - b) > 0.0; };

  const lp::SimplexSolver lp_solver;
  Stopwatch clock;
  const int num_vars = base.num_variables();
  // Deadline + portfolio-cancel, polled before every node.
  CancelToken stop(options_.time_limit_seconds, options_.cancel);

  MilpResult result;
  bool have_incumbent = false;
  // Best external cutoff seen so far (problem sense); -sign*inf = none.
  // Refreshed before every node, so a peer's incumbent tightens pruning
  // from the next node on.
  double external = -sign * lp::kInfinity;
  bool external_used = false;  // an external value ever pruned a node
  auto refresh_external = [&] {
    if (!options_.external_cutoff) return;
    const double v = options_.external_cutoff();
    if (std::isfinite(v) && better(v, external)) external = v;
  };

  // Best-first: larger sign*estimate first; ties broken by depth (deeper
  // first, diving toward incumbents), then LIFO on id for determinism.
  auto node_order = [sign](const Node& a, const Node& b) {
    const double ka = sign * a.estimate, kb = sign * b.estimate;
    if (ka != kb) return ka < kb;  // priority_queue: "less" => lower priority
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.id < b.id;
  };
  std::priority_queue<Node, std::vector<Node>, decltype(node_order)> open(
      node_order);

  long next_id = 0;
  const double root_estimate =
      maximize ? lp::kInfinity : -lp::kInfinity;
  open.push(Node{{}, {}, root_estimate, 0, next_id++});

  // Fix-and-round primal heuristic: fix every integral variable to the
  // rounded LP value and re-solve the continuous rest.
  auto try_heuristic = [&](const std::vector<double>& relaxation) {
    lp::Problem fixed = base;
    for (int idx : model.integral_variables()) {
      const double v =
          std::round(relaxation[static_cast<std::size_t>(idx)]);
      const double lo = fixed.variable(idx).lower;
      const double hi = fixed.variable(idx).upper;
      const double clamped = std::clamp(v, lo, hi);
      fixed.variable(idx).lower = clamped;
      fixed.variable(idx).upper = clamped;
    }
    const lp::Solution s = lp_solver.solve(fixed);
    result.lp_iterations += s.iterations;
    if (s.status != lp::SolveStatus::kOptimal) return;
    if (base.max_violation(s.values) > 1e-6) return;
    if (!have_incumbent || better(s.objective, result.objective)) {
      have_incumbent = true;
      result.objective = s.objective;
      result.values = s.values;
      if (options_.on_incumbent) {
        result.seconds = clock.seconds();
        options_.on_incumbent(result);
      }
    }
  };

  // Seed the incumbent from a caller-provided feasible assignment.
  if (options_.initial_solution.size() ==
      static_cast<std::size_t>(base.num_variables())) {
    const std::vector<double>& x0 = options_.initial_solution;
    if (base.max_violation(x0) <= 1e-6 &&
        model.is_integral(x0, options_.integrality_tol)) {
      bool in_bounds = true;
      for (int j = 0; j < base.num_variables(); ++j) {
        const lp::Variable& v = base.variable(j);
        if (x0[static_cast<std::size_t>(j)] < v.lower - 1e-7 ||
            x0[static_cast<std::size_t>(j)] > v.upper + 1e-7) {
          in_bounds = false;
          break;
        }
      }
      if (in_bounds) {
        have_incumbent = true;
        result.objective = base.objective_value(x0);
        result.values = x0;
      }
    }
  }

  // One LP for the whole search. The root solves it cold; each later node
  // re-solves it from the previous node's basis under its own bounds
  // (base + overrides) by dual simplex, and rebuilds it cold when the warm
  // start declines, after kWarmSolvesPerRebuild warm solves, or when a
  // warm optimum misses the rows by more than initial_solution's 1e-6.
  std::optional<lp::Simplex> node_lp;
  std::vector<double> objective(static_cast<std::size_t>(num_vars));
  std::vector<double> lower(objective.size()), upper(objective.size());
  for (int j = 0; j < num_vars; ++j) {
    objective[static_cast<std::size_t>(j)] = base.variable(j).objective;
  }
  long warm_solves = 0;
  auto solve_node = [&](const Node& node) {
    if (!node_lp) {  // the root, at the base bounds
      node_lp.emplace(base);
      return node_lp->optimize(objective, maximize);
    }
    for (int j = 0; j < num_vars; ++j) {
      lower[static_cast<std::size_t>(j)] = base.variable(j).lower;
      upper[static_cast<std::size_t>(j)] = base.variable(j).upper;
    }
    for (const auto& [var, lo] : node.lower_overrides) {
      double& l = lower[static_cast<std::size_t>(var)];
      l = std::max(l, lo);
    }
    for (const auto& [var, hi] : node.upper_overrides) {
      double& u = upper[static_cast<std::size_t>(var)];
      u = std::min(u, hi);
    }
    if (warm_solves < kWarmSolvesPerRebuild) {
      std::optional<lp::Solution> warm = node_lp->resolve(lower, upper);
      if (warm && (warm->status != lp::SolveStatus::kOptimal ||
                   base.max_violation(warm->values) <= 1e-6)) {
        ++warm_solves;
        return *std::move(warm);
      }
      if (warm) result.lp_iterations += warm->iterations;
    }
    warm_solves = 0;
    node_lp->rebuild(lower, upper);
    return node_lp->optimize(objective, maximize);
  };

  double global_bound = root_estimate;
  bool aborted_time = false;
  bool aborted_nodes = false;
  bool threshold_reached = false;
  bool lp_trouble = false;
  // Nodes left unbranched because their relaxation cannot beat the
  // decision threshold: the best of their LP values bounds all of them
  // (-sign*inf = none).
  double below = -sign * lp::kInfinity;

  // Sound dual bound: `open_part` (the best estimate still open) raised to
  // the incumbent (achievable, and it dominates every node pruned against
  // it), to the external cutoff once that pruned a node (achievable too,
  // just not by this search), and to the nodes left below the threshold.
  auto dual_bound = [&](double open_part) {
    double b = open_part;
    if (have_incumbent && better(result.objective, b)) b = result.objective;
    if (external_used && better(external, b)) b = external;
    if (better(below, b)) b = below;
    return b;
  };
  auto open_bound = [&] {
    return dual_bound(open.empty() ? global_bound : open.top().estimate);
  };

  while (!open.empty()) {
    refresh_external();
    if (options_.decision_threshold &&
        !better(open_bound(), *options_.decision_threshold)) {
      threshold_reached = true;
      break;
    }
    if (stop.should_stop()) {
      aborted_time = true;
      break;
    }
    if (options_.max_nodes > 0 && result.nodes_explored >= options_.max_nodes) {
      aborted_nodes = true;
      break;
    }

    Node node = open.top();
    open.pop();
    // The best remaining estimate bounds everything still open; combined
    // with the incumbent this is the proven global bound.
    global_bound = node.estimate;
    if (have_incumbent) {
      // `node.estimate` is the best bound over everything still open
      // (best-first order), so this is the true global optimality gap.
      const double denom = std::max(1.0, std::abs(result.objective));
      const double improvement = sign * (node.estimate - result.objective);
      if (improvement <= options_.relative_gap_tol * denom) {
        global_bound = result.objective;
        break;
      }
    }
    if (std::isfinite(external) && !better(node.estimate, external)) {
      // The externally-achieved value dominates this whole subtree (its
      // values are <= the estimate), so it can be dropped without an LP
      // solve. best_bound is clamped with `external` on exit, which keeps
      // the reported bound sound.
      external_used = true;
      continue;
    }

    ++result.nodes_explored;
    const lp::Solution relax = solve_node(node);
    result.lp_iterations += relax.iterations;
    if (log_level() <= LogLevel::kDebug) {
      std::string fixes;
      for (const auto& [v, lo] : node.lower_overrides)
        fixes += " v" + std::to_string(v) + ">=" + std::to_string(lo);
      for (const auto& [v, hi] : node.upper_overrides)
        fixes += " v" + std::to_string(v) + "<=" + std::to_string(hi);
      log_debug("node ", node.id, " depth=", node.depth,
                " est=", node.estimate, " lp_status=", static_cast<int>(relax.status),
                " obj=", relax.objective, fixes);
    }

    if (relax.status == lp::SolveStatus::kInfeasible) continue;
    if (relax.status == lp::SolveStatus::kUnbounded) {
      if (node.depth == 0) {
        result.status = MilpStatus::kUnbounded;
        result.seconds = clock.seconds();
        return result;
      }
      // A bounded-root child cannot be unbounded; treat as numerical
      // trouble and skip conservatively.
      lp_trouble = true;
      continue;
    }
    if (relax.status == lp::SolveStatus::kIterationLimit) {
      log_warn("BranchAndBound: node LP hit iteration limit; aborting");
      lp_trouble = true;
      break;
    }

    // Prune by bound.
    if (have_incumbent && !better(relax.objective, result.objective)) {
      continue;
    }
    if (std::isfinite(external) && !better(relax.objective, external)) {
      external_used = true;
      continue;
    }

    // Integral solution: new incumbent.
    if (model.is_integral(relax.values, options_.integrality_tol)) {
      if (!have_incumbent || better(relax.objective, result.objective)) {
        have_incumbent = true;
        result.objective = relax.objective;
        result.values = relax.values;
        if (options_.on_incumbent) {
          result.seconds = clock.seconds();
          options_.on_incumbent(result);
        }
      }
      continue;
    }

    // Nothing in this subtree can beat the decision threshold, so it
    // cannot change the answer: leave it unbranched, bounded by its LP.
    if (options_.decision_threshold &&
        !better(relax.objective, *options_.decision_threshold)) {
      if (better(relax.objective, below)) below = relax.objective;
      continue;
    }

    if (options_.heuristic_interval > 0 &&
        (result.nodes_explored == 1 ||
         result.nodes_explored % options_.heuristic_interval == 0)) {
      try_heuristic(relax.values);
    }

    // Branch on the highest-priority fractional variable (fractionality
    // itself acts as the priority when none is provided, and as the
    // tie-break otherwise).
    const bool has_priority =
        options_.branch_priority.size() ==
        static_cast<std::size_t>(base.num_variables());
    int branch_var = -1;
    double best_prio = 0.0;
    double best_frac_score = -1.0;
    for (int idx : model.integral_variables()) {
      const double v = relax.values[static_cast<std::size_t>(idx)];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= options_.integrality_tol) continue;
      const double prio =
          has_priority ? options_.branch_priority[static_cast<std::size_t>(idx)]
                       : 0.0;
      if (branch_var < 0 || prio > best_prio ||
          (prio == best_prio && dist > best_frac_score)) {
        best_prio = prio;
        best_frac_score = dist;
        branch_var = idx;
      }
    }
    require(branch_var >= 0,
            "BranchAndBound: non-integral solution with no fractional "
            "variable (tolerance mismatch)");

    const double v = relax.values[static_cast<std::size_t>(branch_var)];
    Node down = node;
    down.upper_overrides.emplace_back(branch_var, std::floor(v));
    down.estimate = relax.objective;
    down.depth = node.depth + 1;
    down.id = next_id++;
    Node up = node;
    up.lower_overrides.emplace_back(branch_var, std::ceil(v));
    up.estimate = relax.objective;
    up.depth = node.depth + 1;
    up.id = next_id++;
    open.push(std::move(down));
    open.push(std::move(up));
  }

  result.seconds = clock.seconds();
  if (threshold_reached) {
    result.status = MilpStatus::kThresholdReached;
    result.best_bound = open_bound();
    return result;
  }
  if (aborted_time || lp_trouble) {
    result.status = have_incumbent ? MilpStatus::kTimeLimitFeasible
                                   : MilpStatus::kTimeLimitNoSolution;
    result.cancelled = stop.cause() == StopCause::kCancelled;
    // A timeout before the root node is processed leaves no dual bound at
    // all: open_bound() reports +/-inf honestly.
    result.best_bound = open_bound();
    return result;
  }
  if (aborted_nodes) {
    result.status = have_incumbent ? MilpStatus::kNodeLimit
                                   : MilpStatus::kTimeLimitNoSolution;
    result.best_bound = open_bound();
    return result;
  }
  // The search finished, but subtrees left below the threshold may hold
  // values beyond the incumbent: then only "optimum <= bound <= t" holds.
  if (std::isfinite(below) &&
      (!have_incumbent || better(below, result.objective))) {
    result.status = MilpStatus::kThresholdReached;
    result.best_bound = dual_bound(-sign * lp::kInfinity);
    return result;
  }
  if (!have_incumbent) {
    if (external_used) {
      // Every branch was dominated by the external cutoff: the search
      // proved optimum <= external without ever holding an assignment.
      result.status = MilpStatus::kTimeLimitNoSolution;
      result.best_bound = external;
      return result;
    }
    result.status = MilpStatus::kInfeasible;
    result.best_bound = result.objective;
    return result;
  }
  // With an external cutoff the incumbent is only proven optimal among
  // assignments beating the cutoff; best_bound still brackets the true
  // optimum after the clamp.
  result.status = MilpStatus::kOptimal;
  result.best_bound = result.objective;
  if (external_used && better(external, result.best_bound)) {
    result.best_bound = external;
  }
  return result;
}

}  // namespace safenn::milp
