#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace safenn::lp {

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
  std::vector<int> active;      // refresh's nonbasic columns off zero
  std::vector<int> deferred;    // resolve's columns held through its dual pass

  double* row(int r) { return a.data() + static_cast<std::size_t>(r) * ncols; }
  const double* row(int r) const {
    return a.data() + static_cast<std::size_t>(r) * ncols;
  }
  double& at(int r, int c) { return row(r)[c]; }
  double at(int r, int c) const {
    return a[static_cast<std::size_t>(r) * ncols + c];
  }
};

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
/// resolve() declines once its dual pass has taken
/// kDualStepsPerRow * (m + kDualStepRowSlack) steps, which also ends dual
/// cycling (8 of ~4,600 re-solves hit it on verify-battery's MILPs run to
/// 1,000 nodes each).
constexpr long kDualStepsPerRow = 4;
constexpr long kDualStepRowSlack = 8;
/// The dual ratio test refuses a pivot smaller than this fraction of its
/// row's largest nonbasic entry, and the pass ends once a row's largest
/// entry passes kDualMaxGrowth: a warm tableau that grew that far is
/// rebuilt, not trusted.
constexpr double kDualPivotRelTol = 1e-7;
constexpr double kDualMaxGrowth = 1e9;

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
/// assignment: x_B = (B^{-1}b) - sum_{j nonbasic} (B^{-1}A)_j x_j. Each
/// row subtracts its nonbasic terms in ascending j straight from rhs, as
/// a column-by-column walk would, so the same bits; writing a basic value
/// mid-walk is safe because no row reads a basic column.
void refresh_basic_values(Tableau& t) {
  t.active.clear();
  for (int j = 0; j < t.ncols; ++j) {
    if (!t.in_basis[j] && t.val[j] != 0.0) t.active.push_back(j);
  }
  for (int r = 0; r < t.m; ++r) {
    const double* const row = t.row(r);
    double x = t.rhs[static_cast<std::size_t>(r)];
    for (const int j : t.active) {
      const double coef = row[j];
      if (coef != 0.0) x -= coef * t.val[j];
    }
    t.val[t.basis[r]] = x;
  }
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

/// Fills t.reduced[0, width): d_j = c_j - sum_r c_B[r] T[r,j] over the
/// rows whose basic column carries a cost, one contiguous row at a time in
/// ascending r. Each d_j gets the same subtractions in the same order as a
/// column-wise sum, so the same bits.
void reduced_costs(Tableau& t, int width) {
  double* const d = t.reduced.data();
  std::copy_n(t.cost.data(), width, d);
  for (int r = 0; r < t.m; ++r) {
    const double cb = t.cost[static_cast<std::size_t>(t.basis[r])];
    if (cb != 0.0) sub_scaled(d, cb, t.row(r), width);
  }
}

/// Moves nonbasic column j by delta: each basic value shifts along j.
void shift_basics(Tableau& t, int j, double delta) {
  for (int r = 0; r < t.m; ++r) {
    const double coef = t.at(r, j);
    if (coef != 0.0) t.val[t.basis[r]] -= coef * delta;
  }
}

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

SolveStatus status_of(PhaseResult p) {
  switch (p) {
    case PhaseResult::kOptimal: return SolveStatus::kOptimal;
    case PhaseResult::kUnbounded: return SolveStatus::kUnbounded;
    case PhaseResult::kIterationLimit: break;
  }
  return SolveStatus::kIterationLimit;
}

/// Runs primal simplex on the current costs until optimality.
/// `allow_artificial` false bans artificials from entering (Phase 2) and
/// narrows pricing and pivots to the n + m columns before them.
__attribute__((aligned(64))) PhaseResult run_phase(Tableau& t, long& iters,
                                                   bool allow_artificial) {
  long degenerate_streak = 0;
  const int enter_limit = allow_artificial ? t.ncols : t.n + t.m;
  const double* const reduced = t.reduced.data();

  while (iters < kMaxIterations) {
    ++iters;

    reduced_costs(t, enter_limit);

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

/// True when nonbasic column j sits where the ratio tests assume a
/// nonbasic column sits: at a finite bound, or anywhere when it has none.
bool at_bound(const Tableau& t, int j) {
  const bool lo_finite = std::isfinite(t.lo[j]);
  const bool hi_finite = std::isfinite(t.hi[j]);
  if (!lo_finite && !hi_finite) return true;
  return (lo_finite && t.val[j] <= t.lo[j] + kFeasibilityTol) ||
         (hi_finite && t.val[j] >= t.hi[j] - kFeasibilityTol);
}

enum class DualResult { kFeasible, kNoEntering, kStepCap, kUnstable };

/// Dual simplex over the n + m live columns: while a basic value violates
/// its bounds, the row with the largest violation leaves at the violated
/// bound, and a column whose reduced cost reaches zero first enters, so
/// every reduced cost keeps its optimal sign. The ratio test is Harris'
/// two passes: the longest dual step that keeps every reduced cost within
/// the optimality tolerance of its sign, then, among the columns whose own
/// ratio fits under it, the largest |pivot|; a pivot below
/// kDualPivotRelTol of the row's largest entry is refused, and a row that
/// grows past kDualMaxGrowth ends the pass (kUnstable). kNoEntering leaves
/// `row` at a violated row no column can repair: a candidate
/// infeasibility proof. Expects t.reduced over the live columns and keeps
/// it current.
DualResult dual_pass(Tableau& t, long& iters, int& row) {
  const int width = t.n + t.m;
  const long cap = kDualStepsPerRow * (t.m + kDualStepRowSlack);
  double* const d = t.reduced.data();

  for (long steps = 0;; ++steps) {
    int leave_row = -1;
    bool below = false;
    double worst = kFeasibilityTol;
    for (int r = 0; r < t.m; ++r) {
      const int b = t.basis[r];
      if (t.val[b] < t.lo[b] - worst) {
        worst = t.lo[b] - t.val[b];
        leave_row = r;
        below = true;
      } else if (t.val[b] > t.hi[b] + worst) {
        worst = t.val[b] - t.hi[b];
        leave_row = r;
        below = false;
      }
    }
    if (leave_row < 0) return DualResult::kFeasible;
    if (steps == cap) return DualResult::kStepCap;
    ++iters;

    // x_b = rhs_r - sum_j alpha_j x_j: raising x_b (below) takes a column
    // with alpha < 0 that can rise or alpha > 0 that can fall; lowering
    // it takes the opposite. `dir` is the entering column's direction.
    const double* const alpha = t.row(leave_row);
    double row_max = 0.0;
    for (int j = 0; j < width; ++j) {
      if (!t.in_basis[j]) row_max = std::max(row_max, std::abs(alpha[j]));
    }
    if (row_max > kDualMaxGrowth) return DualResult::kUnstable;
    const double pivot_tol = std::max(kPivotTol, kDualPivotRelTol * row_max);
    auto can_enter = [&](int j, int& dir) {
      if (t.in_basis[j] || t.lo[j] == t.hi[j]) return false;
      if (std::abs(alpha[j]) <= pivot_tol) return false;
      dir = (below == (alpha[j] < 0.0)) ? +1 : -1;
      const bool at_lower =
          std::isfinite(t.lo[j]) && t.val[j] <= t.lo[j] + kFeasibilityTol;
      const bool at_upper =
          std::isfinite(t.hi[j]) && t.val[j] >= t.hi[j] - kFeasibilityTol;
      return !(dir > 0 ? at_upper && !at_lower : at_lower && !at_upper);
    };
    double max_ratio = kInf;
    for (int j = 0; j < width; ++j) {
      int dir = 0;
      if (!can_enter(j, dir)) continue;
      max_ratio = std::min(
          max_ratio,
          (std::max(dir * d[j], 0.0) + kOptimalityTol) / std::abs(alpha[j]));
    }
    int enter = -1;
    double best_pivot = 0.0;
    for (int j = 0; j < width; ++j) {
      int dir = 0;
      if (!can_enter(j, dir)) continue;
      const double ratio = std::max(dir * d[j], 0.0) / std::abs(alpha[j]);
      if (ratio <= max_ratio && std::abs(alpha[j]) > std::abs(best_pivot)) {
        enter = j;
        best_pivot = alpha[j];
      }
    }
    if (enter < 0) {
      row = leave_row;
      return DualResult::kNoEntering;
    }

    // The entering column moves until x_b reaches its bound.
    const int leaving = t.basis[leave_row];
    const double target = below ? t.lo[leaving] : t.hi[leaving];
    const double step = (t.val[leaving] - target) / best_pivot;
    shift_basics(t, enter, step);
    t.val[enter] += step;
    pivot(t, leave_row, enter, width);
    t.val[leaving] = target;
    const double dq = d[enter];
    if (dq != 0.0) sub_scaled(d, dq, t.row(leave_row), width);
    if (iters % kRefreshInterval == 0) refresh_basic_values(t);
  }
}

/// True when tableau row r proves the current bounds infeasible. Its
/// slack part is a multiplier per original row, w_i = T[r, n+i] (the
/// slack columns hold B^{-1} times each row's setup sign), and the
/// combination sum_i w_i (a_i x + s_i) = sum_i w_i b_i holds at every
/// feasible point. Rebuilt here from the problem's own rows, it proves
/// infeasibility when no x within its bounds and no slacks within theirs
/// reach its right-hand side, by more than each row's tolerance weighted
/// by |w_i|; tableau drift can change w, never fake a proof. A slack's
/// range is its relation's, cut to what its row's activity over the
/// variable bounds leaves (b_i - a_i x), so an open slack side with a
/// tiny multiplier does not void the proof. `coef` is scratch.
bool proves_infeasible(const Tableau& t, const Problem& problem, int r,
                       std::vector<double>& coef) {
  const double* const row = t.row(r);
  coef.assign(static_cast<std::size_t>(t.n), 0.0);
  double rhs = 0.0, weight = 0.0, low = 0.0, high = 0.0;
  // low/high gather the combination's least and largest value over the
  // bounds; an infinite end only ever adds -inf to low and +inf to high.
  auto add_range = [&](double c, double lo, double hi) {
    if (c > 0.0) {
      low += c * lo;
      high += c * hi;
    } else if (c < 0.0) {
      low += c * hi;
      high += c * lo;
    }
  };
  for (int i = 0; i < t.m; ++i) {
    const double w = row[t.n + i];
    if (w == 0.0) continue;
    const Constraint& c = problem.constraint(i);
    double act_lo = 0.0, act_hi = 0.0;
    for (const auto& [var, a] : c.terms) {
      coef[static_cast<std::size_t>(var)] += w * a;
      act_lo += a * (a > 0.0 ? t.lo[var] : t.hi[var]);
      act_hi += a * (a > 0.0 ? t.hi[var] : t.lo[var]);
    }
    rhs += w * c.rhs;
    weight += std::abs(w);
    add_range(w, std::max(t.lo[t.n + i], c.rhs - act_hi),
              std::min(t.hi[t.n + i], c.rhs - act_lo));
  }
  for (int j = 0; j < t.n; ++j) {
    add_range(coef[static_cast<std::size_t>(j)], t.lo[j], t.hi[j]);
  }
  const double tol = kFeasibilityTol * (1.0 + weight);
  return rhs < low - tol || rhs > high + tol;
}

}  // namespace

Simplex::Simplex(const Problem& problem)
    : problem_(problem), t_(std::make_unique<Tableau>()) {
  const int n = problem.num_variables();
  const int m = problem.num_constraints();
  require(n > 0, "Simplex: problem has no variables");
  Tableau& t = *t_;
  t.n = n;
  t.m = m;
  t.ncols = n + 2 * m;
  t.lo.resize(static_cast<std::size_t>(t.ncols));
  t.hi.resize(static_cast<std::size_t>(t.ncols));
  for (int j = 0; j < n; ++j) {
    const Variable& v = problem.variable(j);
    t.lo[j] = v.lower;
    t.hi[j] = v.upper;
  }
  cold_start();
}

Simplex::~Simplex() = default;

void Simplex::rebuild(const std::vector<double>& lower,
                      const std::vector<double>& upper) {
  Tableau& t = *t_;
  require(lower.size() == static_cast<std::size_t>(t.n) &&
              upper.size() == static_cast<std::size_t>(t.n),
          "Simplex::rebuild: bound vectors must have one entry per variable");
  for (int j = 0; j < t.n; ++j) {
    t.lo[j] = lower[static_cast<std::size_t>(j)];
    t.hi[j] = upper[static_cast<std::size_t>(j)];
    require(t.lo[j] <= t.hi[j], "Simplex::rebuild: lower > upper");
  }
  spent_ += iters_;
  iters_ = 0;
  cold_start();
}

void Simplex::cold_start() {
  Tableau& t = *t_;
  const Problem& problem = problem_;
  const int n = t.n;
  const int m = t.m;
  // assign() keeps each buffer's capacity, so a rebuild allocates nothing.
  t.a.assign(static_cast<std::size_t>(m) * t.ncols, 0.0);
  t.rhs.assign(static_cast<std::size_t>(m), 0.0);
  t.cost.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.val.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.basis.assign(static_cast<std::size_t>(m), -1);
  t.in_basis.assign(static_cast<std::size_t>(t.ncols), 0);
  t.reduced.resize(static_cast<std::size_t>(t.ncols));
  stale_ = false;
  primal_ok_ = false;
  dual_ok_ = false;

  for (int j = 0; j < n; ++j) t.val[j] = initial_value(t.lo[j], t.hi[j]);
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

  // Phase 1: minimize the sum of artificials.
  for (int i = 0; i < m; ++i) t.cost[static_cast<std::size_t>(n + m + i)] = 1.0;
  const PhaseResult p1 = run_phase(t, iters_, /*allow_artificial=*/true);
  if (p1 == PhaseResult::kIterationLimit) {
    blocked_ = SolveStatus::kIterationLimit;
    return;
  }
  refresh_basic_values(t);
  double infeas = 0.0;
  for (int i = 0; i < m; ++i) infeas += std::max(0.0, t.val[n + m + i]);
  if (infeas > 1e-6) {
    blocked_ = SolveStatus::kInfeasible;
    return;
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
  primal_ok_ = true;
}

long Simplex::take_iterations() {
  const long iters = iters_ + spent_;
  iters_ = 0;
  spent_ = 0;
  return iters;
}

Solution Simplex::optimize(const std::vector<double>& objective,
                           bool maximize) {
  Tableau& t = *t_;
  require(!stale_, "Simplex::optimize: rebuild after a declined resolve");
  require(objective.size() == static_cast<std::size_t>(t.n),
          "Simplex::optimize: objective must have one entry per variable");
  objective_ = objective;
  if (!primal_ok_) {
    Solution sol;
    sol.status = blocked_;
    sol.iterations = take_iterations();
    return sol;
  }
  // Phase 2: the real objective.
  const double obj_sign = maximize ? -1.0 : 1.0;
  std::fill(t.cost.begin(), t.cost.end(), 0.0);
  for (int j = 0; j < t.n; ++j)
    t.cost[static_cast<std::size_t>(j)] = obj_sign * objective[static_cast<std::size_t>(j)];
  return finish(status_of(run_phase(t, iters_, /*allow_artificial=*/false)));
}

Solution Simplex::finish(SolveStatus phase2) {
  Tableau& t = *t_;
  Solution sol;
  sol.iterations = take_iterations();
  sol.status = phase2;
  dual_ok_ = phase2 == SolveStatus::kOptimal;
  if (phase2 != SolveStatus::kOptimal) return sol;

  refresh_basic_values(t);
  sol.values.resize(static_cast<std::size_t>(t.n));
  // Snap tiny bound violations introduced by finite tolerances, then sum
  // the objective in ascending index order (Problem::objective_value).
  double objective = 0.0;
  for (int j = 0; j < t.n; ++j) {
    const double v = std::clamp(t.val[static_cast<std::size_t>(j)], t.lo[j], t.hi[j]);
    sol.values[static_cast<std::size_t>(j)] = v;
    objective += objective_[static_cast<std::size_t>(j)] * v;
  }
  sol.objective = objective;
  return sol;
}

std::optional<Solution> Simplex::decline() {
  spent_ += iters_;
  iters_ = 0;
  stale_ = true;
  primal_ok_ = false;
  dual_ok_ = false;
  return std::nullopt;
}

std::optional<Solution> Simplex::resolve(const std::vector<double>& lower,
                                         const std::vector<double>& upper) {
  Tableau& t = *t_;
  require(lower.size() == static_cast<std::size_t>(t.n) &&
              upper.size() == static_cast<std::size_t>(t.n),
          "Simplex::resolve: bound vectors must have one entry per variable");
  if (stale_ || !dual_ok_) return decline();

  // Every new domain applies at once. A basic column only needs its value
  // inside it, which the dual pass restores. A nonbasic column moves into
  // it, to the bound its reduced cost keeps dual feasible (a boxed column
  // always has one); a column whose needed bound is infinite is held at
  // its value until the dual pass ends (deferred). Each moved nonbasic
  // value shifts the basic values along its column.
  reduced_costs(t, t.n + t.m);
  const double* const d = t.reduced.data();
  t.deferred.clear();
  for (int j = 0; j < t.n; ++j) {
    const double lo = lower[static_cast<std::size_t>(j)];
    const double hi = upper[static_cast<std::size_t>(j)];
    require(lo <= hi, "Simplex::resolve: lower > upper");
    if (lo == t.lo[j] && hi == t.hi[j]) continue;
    t.lo[j] = lo;
    t.hi[j] = hi;
    if (t.in_basis[j]) continue;
    double v = std::clamp(t.val[j], lo, hi);
    if (lo != hi) {
      const bool lower_ok = std::isfinite(lo) && d[j] >= -kOptimalityTol;
      const bool upper_ok = std::isfinite(hi) && d[j] <= kOptimalityTol;
      const bool stays = (lower_ok && v <= lo + kFeasibilityTol) ||
                         (upper_ok && v >= hi - kFeasibilityTol);
      if (!stays) {
        if (lower_ok) {
          v = lo;
        } else if (upper_ok) {
          v = hi;
        } else {
          t.lo[j] = t.hi[j] = v;
          t.deferred.push_back(j);
        }
      }
    }
    const double delta = v - t.val[j];
    t.val[j] = v;
    if (delta != 0.0) shift_basics(t, j, delta);
  }

  int proof_row = -1;
  switch (dual_pass(t, iters_, proof_row)) {
    case DualResult::kFeasible:
      break;
    case DualResult::kNoEntering: {
      if (!t.deferred.empty()) return decline();
      if (!proves_infeasible(t, problem_, proof_row, scratch_)) return decline();
      primal_ok_ = false;
      blocked_ = SolveStatus::kInfeasible;
      Solution sol;
      sol.status = SolveStatus::kInfeasible;
      sol.iterations = take_iterations();
      return sol;
    }
    case DualResult::kStepCap:
    case DualResult::kUnstable:
      return decline();
  }

  for (const int j : t.deferred) {
    t.lo[j] = lower[static_cast<std::size_t>(j)];
    t.hi[j] = upper[static_cast<std::size_t>(j)];
    if (!t.in_basis[j] && !at_bound(t, j)) return decline();
  }
  primal_ok_ = true;
  return finish(status_of(run_phase(t, iters_, /*allow_artificial=*/false)));
}

Solution SimplexSolver::solve(const Problem& problem) const {
  Simplex lp(problem);
  std::vector<double> objective(static_cast<std::size_t>(problem.num_variables()));
  for (int j = 0; j < problem.num_variables(); ++j) {
    objective[static_cast<std::size_t>(j)] = problem.variable(j).objective;
  }
  return lp.optimize(objective, problem.maximize());
}

}  // namespace safenn::lp
