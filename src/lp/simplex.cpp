#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace safenn::lp {
namespace {

constexpr double kInf = kInfinity;
constexpr long kMaxIterations = 200000;
constexpr double kFeasibilityTol = 1e-7;
constexpr double kOptimalityTol = 1e-7;
constexpr double kPivotTol = 1e-9;
/// Switch to Bland's rule after this many consecutive degenerate pivots.
constexpr long kDegenerateSwitch = 200;
/// Recompute basic values from scratch every N pivots (numerical hygiene).
constexpr long kRefreshInterval = 128;

/// Dense bounded-variable simplex working state. Column layout:
/// [0, n)           structural variables
/// [n, n+m)         slacks (one per row; fixed to 0 for equalities)
/// [n+m, n+2m)      Phase-1 artificials
struct Tableau {
  int n = 0;       // structural count
  int m = 0;       // row count
  int ncols = 0;   // n + 2m
  std::vector<double> a;     // m x ncols, row-major: B^{-1} A maintained
  std::vector<double> rhs;   // B^{-1} b maintained
  std::vector<double> lo, hi;
  std::vector<double> cost;  // current phase costs
  std::vector<double> val;   // current value per column
  std::vector<int> basis;    // basic column per row
  std::vector<char> in_basis;
  std::vector<double> reduced;  // pricing's reduced costs, one per column

  double* row(int r) { return a.data() + static_cast<std::size_t>(r) * ncols; }
  double& at(int r, int c) { return row(r)[c]; }
  double at(int r, int c) const {
    return a[static_cast<std::size_t>(r) * ncols + c];
  }
};

/// Snaps nonbasic starting value: finite lower bound preferred, then
/// finite upper, else 0 (free variable).
double initial_value(double lo, double hi) {
  if (std::isfinite(lo)) return lo;
  if (std::isfinite(hi)) return hi;
  return 0.0;
}

// The row loops of pricing and the pivot. Each element gets one
// multiply (scale) or one multiply then one subtract (sub_scaled), never
// fused (-ffp-contract=off) or reassociated, so whatever vector width
// the compiler picks (2-lane SSE2 at -O3 on x86-64, wider under
// -march=native) computes the same bits.

/// x[0, n) *= s.
inline void scale(double* x, double s, int n) {
  for (int c = 0; c < n; ++c) x[c] *= s;
}

/// y[0, n) -= f * x[0, n).
inline void sub_scaled(double* y, double f, const double* x, int n) {
  for (int c = 0; c < n; ++c) y[c] -= f * x[c];
}

/// Recomputes basic variable values from the pivoted rhs and the nonbasic
/// assignment: x_B = (B^{-1}b) - sum_{j nonbasic} (B^{-1}A)_j x_j.
void refresh_basic_values(Tableau& t) {
  std::vector<double> beta = t.rhs;
  for (int j = 0; j < t.ncols; ++j) {
    if (t.in_basis[j] || t.val[j] == 0.0) continue;
    for (int r = 0; r < t.m; ++r) {
      const double coef = t.at(r, j);
      if (coef != 0.0) beta[static_cast<std::size_t>(r)] -= coef * t.val[j];
    }
  }
  for (int r = 0; r < t.m; ++r) t.val[t.basis[r]] = beta[static_cast<std::size_t>(r)];
}

/// Performs the elimination pivot making column `enter` basic in row `r`,
/// over the tableau's first `width` columns (the live ones: phase 2
/// never reads the artificials' columns, so its pivots skip them).
/// Cache-line aligned, like run_phase: otherwise the LP hot loops' speed
/// depends on how much code the linker places before them, and
/// verification queries ran up to ~18% slower in the unlucky layouts
/// (x86-64, GCC 12).
__attribute__((aligned(64))) void pivot(Tableau& t, int r, int enter,
                                        int width) {
  double* const pr = t.row(r);
  const double inv = 1.0 / pr[enter];
  scale(pr, inv, width);
  t.rhs[static_cast<std::size_t>(r)] *= inv;
  for (int i = 0; i < t.m; ++i) {
    if (i == r) continue;
    double* const pi = t.row(i);
    const double f = pi[enter];
    if (f == 0.0) continue;
    sub_scaled(pi, f, pr, width);
    pi[enter] = 0.0;  // kill residual rounding
    t.rhs[static_cast<std::size_t>(i)] -= f * t.rhs[static_cast<std::size_t>(r)];
  }
  t.in_basis[t.basis[r]] = 0;
  t.in_basis[enter] = 1;
  t.basis[r] = enter;
}

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

/// Runs primal simplex on the current costs until optimality.
/// `allow_artificial` false bans artificials from entering (Phase 2) and
/// narrows pricing and pivots to the n + m columns before them.
__attribute__((aligned(64))) PhaseResult run_phase(Tableau& t, long& iters,
                                                   bool allow_artificial) {
  long degenerate_streak = 0;
  const int enter_limit = allow_artificial ? t.ncols : t.n + t.m;
  double* const reduced = t.reduced.data();

  while (iters < kMaxIterations) {
    ++iters;

    // Reduced costs d_j = c_j - sum_r c_B[r] T[r,j] over the rows whose
    // basic column carries a cost, one contiguous row at a time in
    // ascending r: each d_j gets the same subtractions in the same order
    // as a column-wise sum, so the same bits.
    std::copy_n(t.cost.data(), enter_limit, reduced);
    for (int r = 0; r < t.m; ++r) {
      const double cb = t.cost[static_cast<std::size_t>(t.basis[r])];
      if (cb != 0.0) sub_scaled(reduced, cb, t.row(r), enter_limit);
    }

    const bool bland = degenerate_streak >= kDegenerateSwitch;
    int enter = -1;
    int dir = +1;
    double best_score = kOptimalityTol;
    for (int j = 0; j < enter_limit; ++j) {
      if (t.in_basis[j]) continue;
      if (t.lo[j] == t.hi[j]) continue;  // fixed column can never improve
      const double d = reduced[j];

      const bool at_lower =
          std::isfinite(t.lo[j]) && t.val[j] <= t.lo[j] + kFeasibilityTol;
      const bool at_upper =
          std::isfinite(t.hi[j]) && t.val[j] >= t.hi[j] - kFeasibilityTol;
      const bool is_free = !at_lower && !at_upper;

      int cand_dir = 0;
      double score = 0.0;
      if ((at_lower || is_free) && d < -kOptimalityTol) {
        cand_dir = +1;
        score = -d;
      } else if ((at_upper || is_free) && d > kOptimalityTol) {
        cand_dir = -1;
        score = d;
      }
      if (cand_dir == 0) continue;
      if (bland) {  // first eligible index
        enter = j;
        dir = cand_dir;
        break;
      }
      if (score > best_score) {
        best_score = score;
        enter = j;
        dir = cand_dir;
      }
    }
    if (enter < 0) return PhaseResult::kOptimal;

    // Ratio test: how far can the entering variable move before either it
    // hits its own opposite bound (bound flip) or a basic variable hits
    // one of its bounds (pivot).
    const double flip_limit =
        (std::isfinite(t.lo[enter]) && std::isfinite(t.hi[enter]))
            ? t.hi[enter] - t.lo[enter]
            : kInf;
    double row_limit = kInf;
    int leave_row = -1;
    double leave_pivot = 0.0;
    bool leave_hits_upper = false;
    for (int r = 0; r < t.m; ++r) {
      const double coef = t.at(r, enter);
      if (std::abs(coef) <= kPivotTol) continue;
      const int b = t.basis[r];
      const double rate = -dir * coef;  // d(val_b)/d(theta)
      double limit;
      bool hits_upper;
      if (rate > 0.0) {
        if (!std::isfinite(t.hi[b])) continue;
        limit = (t.hi[b] - t.val[b]) / rate;
        hits_upper = true;
      } else {
        if (!std::isfinite(t.lo[b])) continue;
        limit = (t.val[b] - t.lo[b]) / (-rate);
        hits_upper = false;
      }
      if (limit < 0.0) limit = 0.0;  // shadow of feasibility tolerance
      bool take;
      if (leave_row < 0) {
        take = limit < row_limit;
      } else if (limit < row_limit - 1e-12) {
        take = true;
      } else if (limit < row_limit + 1e-12) {
        // Tie-break: Bland -> smallest basic index; else largest pivot.
        take = bland ? b < t.basis[leave_row]
                     : std::abs(coef) > std::abs(leave_pivot);
      } else {
        take = false;
      }
      if (take) {
        row_limit = std::min(row_limit, limit);
        leave_row = r;
        leave_pivot = coef;
        leave_hits_upper = hits_upper;
      }
    }

    const double theta = std::min(flip_limit, row_limit);
    if (!std::isfinite(theta)) return PhaseResult::kUnbounded;

    degenerate_streak =
        (theta <= kFeasibilityTol) ? degenerate_streak + 1 : 0;

    // Apply the move to all basic values.
    if (theta != 0.0) {
      for (int r = 0; r < t.m; ++r) {
        const double coef = t.at(r, enter);
        if (coef != 0.0) t.val[t.basis[r]] -= dir * coef * theta;
      }
    }

    if (flip_limit <= row_limit) {
      // Bound flip: the entering variable jumps to its opposite bound and
      // the basis is unchanged.
      t.val[enter] = (dir > 0) ? t.hi[enter] : t.lo[enter];
      continue;
    }

    // Pivot: entering becomes basic, row's old basic leaves at a bound.
    const int leaving = t.basis[leave_row];
    t.val[enter] = t.val[enter] + dir * theta;
    pivot(t, leave_row, enter, enter_limit);
    t.val[leaving] = leave_hits_upper ? t.hi[leaving] : t.lo[leaving];

    if (iters % kRefreshInterval == 0) refresh_basic_values(t);
  }
  return PhaseResult::kIterationLimit;
}

}  // namespace

Solution SimplexSolver::solve(const Problem& problem) const {
  const int n = problem.num_variables();
  const int m = problem.num_constraints();
  require(n > 0, "SimplexSolver: problem has no variables");

  Tableau t;
  t.n = n;
  t.m = m;
  t.ncols = n + 2 * m;
  t.a.assign(static_cast<std::size_t>(m) * t.ncols, 0.0);
  t.rhs.assign(static_cast<std::size_t>(m), 0.0);
  t.lo.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.hi.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.cost.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.val.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.basis.assign(static_cast<std::size_t>(m), -1);
  t.in_basis.assign(static_cast<std::size_t>(t.ncols), 0);
  t.reduced.resize(static_cast<std::size_t>(t.ncols));

  const double obj_sign = problem.maximize() ? -1.0 : 1.0;

  for (int j = 0; j < n; ++j) {
    const Variable& v = problem.variable(j);
    t.lo[j] = v.lower;
    t.hi[j] = v.upper;
    t.val[j] = initial_value(v.lower, v.upper);
  }
  for (int i = 0; i < m; ++i) {
    const Constraint& c = problem.constraint(i);
    for (const auto& [var, coef] : c.terms) t.at(i, var) = coef;
    const int slack = n + i;
    t.at(i, slack) = 1.0;
    switch (c.relation) {
      case Relation::kLe: t.lo[slack] = 0.0; t.hi[slack] = kInf; break;
      case Relation::kGe: t.lo[slack] = -kInf; t.hi[slack] = 0.0; break;
      case Relation::kEq: t.lo[slack] = 0.0; t.hi[slack] = 0.0; break;
    }
    t.val[slack] = 0.0;
  }

  // Residuals with every structural/slack column at its start value give
  // the artificial signs and starting basis.
  for (int i = 0; i < m; ++i) {
    const Constraint& c = problem.constraint(i);
    double lhs = 0.0;
    for (const auto& [var, coef] : c.terms) lhs += coef * t.val[var];
    const double r = c.rhs - lhs;  // slack starts at 0
    const double sign = (r >= 0.0) ? 1.0 : -1.0;
    const int art = n + m + i;
    // Scale the whole row by sign so the artificial column is +1 and the
    // tableau equals B^{-1}A for the artificial basis.
    if (sign < 0.0) {
      for (int ccol = 0; ccol < n + m; ++ccol) t.at(i, ccol) = -t.at(i, ccol);
    }
    t.at(i, art) = 1.0;
    t.lo[art] = 0.0;
    t.hi[art] = kInf;
    t.rhs[static_cast<std::size_t>(i)] = sign * c.rhs;
    t.val[art] = std::abs(r);
    t.basis[static_cast<std::size_t>(i)] = art;
    t.in_basis[static_cast<std::size_t>(art)] = 1;
  }
  // rhs currently holds sign*b; fold in the nonbasic start values.
  refresh_basic_values(t);

  Solution sol;
  long iters = 0;

  // Phase 1: minimize the sum of artificials.
  for (int i = 0; i < m; ++i) t.cost[static_cast<std::size_t>(n + m + i)] = 1.0;
  PhaseResult p1 = run_phase(t, iters, /*allow_artificial=*/true);
  if (p1 == PhaseResult::kIterationLimit) {
    sol.status = SolveStatus::kIterationLimit;
    sol.iterations = iters;
    return sol;
  }
  refresh_basic_values(t);
  double infeas = 0.0;
  for (int i = 0; i < m; ++i) infeas += std::max(0.0, t.val[n + m + i]);
  if (infeas > 1e-6) {
    sol.status = SolveStatus::kInfeasible;
    sol.iterations = iters;
    return sol;
  }

  // Drive any basic artificial (at value ~0) out of the basis when a
  // usable pivot exists; otherwise its row is redundant and the artificial
  // stays pinned at zero.
  for (int r = 0; r < m; ++r) {
    const int b = t.basis[static_cast<std::size_t>(r)];
    if (b < n + m) continue;
    int col = -1;
    for (int j = 0; j < n + m; ++j) {
      if (t.in_basis[static_cast<std::size_t>(j)]) continue;
      if (std::abs(t.at(r, j)) > 1e-7) {
        col = j;
        break;
      }
    }
    if (col >= 0) {
      const double keep = t.val[col];
      pivot(t, r, col, t.ncols);
      t.val[col] = keep;  // degenerate pivot: values unchanged
      t.val[b] = 0.0;
    }
  }
  // Lock artificials at zero for Phase 2.
  for (int i = 0; i < m; ++i) {
    const int art = n + m + i;
    t.lo[static_cast<std::size_t>(art)] = 0.0;
    t.hi[static_cast<std::size_t>(art)] = 0.0;
    if (!t.in_basis[static_cast<std::size_t>(art)]) t.val[static_cast<std::size_t>(art)] = 0.0;
  }
  refresh_basic_values(t);

  // Phase 2: the real objective.
  std::fill(t.cost.begin(), t.cost.end(), 0.0);
  for (int j = 0; j < n; ++j)
    t.cost[static_cast<std::size_t>(j)] = obj_sign * problem.variable(j).objective;

  PhaseResult p2 = run_phase(t, iters, /*allow_artificial=*/false);
  sol.iterations = iters;
  if (p2 == PhaseResult::kIterationLimit) {
    sol.status = SolveStatus::kIterationLimit;
    return sol;
  }
  if (p2 == PhaseResult::kUnbounded) {
    sol.status = SolveStatus::kUnbounded;
    return sol;
  }

  refresh_basic_values(t);
  sol.status = SolveStatus::kOptimal;
  sol.values.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    double v = t.val[static_cast<std::size_t>(j)];
    // Snap tiny bound violations introduced by finite tolerances.
    const Variable& var = problem.variable(j);
    v = std::clamp(v, var.lower, var.upper);
    sol.values[static_cast<std::size_t>(j)] = v;
  }
  sol.objective = problem.objective_value(sol.values);
  return sol;
}

}  // namespace safenn::lp
