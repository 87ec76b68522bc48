#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace safenn::lp {
namespace {

Solution solve(const Problem& p) { return SimplexSolver().solve(p); }

TEST(Problem, MergesDuplicateTerms) {
  Problem p;
  const int x = p.add_variable(0, 10);
  p.add_constraint({{x, 1.0}, {x, 2.0}}, Relation::kLe, 6.0);
  EXPECT_EQ(p.constraint(0).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(p.constraint(0).terms[0].second, 3.0);
}

TEST(Problem, ViolationMeasurement) {
  Problem p;
  const int x = p.add_variable(0, 10);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 5.0);
  EXPECT_DOUBLE_EQ(p.max_violation({7.0}), 2.0);
  EXPECT_DOUBLE_EQ(p.max_violation({3.0}), 0.0);
}

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum: x=2, y=6, obj=36 (classic Dantzig example).
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, kInfinity, 3.0);
  const int y = p.add_variable(0, kInfinity, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLe, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-6);
  EXPECT_NEAR(s.values[0], 2.0, 1e-6);
  EXPECT_NEAR(s.values[1], 6.0, 1e-6);
}

TEST(Simplex, SimpleMinimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
  // Optimum at intersection: x=1.6, y=1.2, obj=2.8.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kGe, 4.0);
  p.add_constraint({{x, 3.0}, {y, 1.0}}, Relation::kGe, 6.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.8, 1e-6);
  EXPECT_NEAR(s.values[0], 1.6, 1e-6);
  EXPECT_NEAR(s.values[1], 1.2, 1e-6);
}

TEST(Simplex, EqualityConstraints) {
  // min 2x + 3y s.t. x + y = 10, x - y = 2 -> x=6, y=4, obj=24.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 2.0);
  const int y = p.add_variable(0, kInfinity, 3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 10.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEq, 2.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 6.0, 1e-6);
  EXPECT_NEAR(s.values[1], 4.0, 1e-6);
  EXPECT_NEAR(s.objective, 24.0, 1e-6);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p;
  const int x = p.add_variable(0, kInfinity);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  Problem p;
  const int x = p.add_variable(0, kInfinity);
  const int y = p.add_variable(0, kInfinity);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 3.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 0.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, BoundedVariablesOnly) {
  // No rows at all: optimum sits at the bound favored by the objective.
  Problem p;
  p.set_maximize(true);
  p.add_variable(-2.0, 5.0, 3.0);
  p.add_variable(-4.0, 1.0, -2.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 5.0, 1e-9);
  EXPECT_NEAR(s.values[1], -4.0, 1e-9);
  EXPECT_NEAR(s.objective, 23.0, 1e-9);
}

TEST(Simplex, UpperBoundsBind) {
  // max x + y, x <= 3 (bound), y <= 2 (bound), x + y <= 4 (row).
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, 3, 1.0);
  const int y = p.add_variable(0, 2, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 4.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x with x in [-5, 5] and x >= -3 as a row: optimum -3.
  Problem p;
  const int x = p.add_variable(-5, 5, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGe, -3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
}

TEST(Simplex, FreeVariable) {
  // min x + y with y free, x in [0,inf), x + y = 3, y <= 10 row.
  // y free means optimum drives y to... objective min x+y with x+y=3 is 3
  // everywhere on the line; any feasible point gives 3.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(-kInfinity, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(Simplex, FreeVariableUnbounded) {
  Problem p;
  const int y = p.add_variable(-kInfinity, kInfinity, 1.0);
  p.add_constraint({{y, 1.0}}, Relation::kLe, 5.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple constraints intersecting at the optimum (degeneracy).
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 2.0);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  p.add_constraint({{y, 1.0}}, Relation::kLe, 1.0);
  p.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::kLe, 3.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kLe, 3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicated equality row must not break Phase 1 cleanup.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 4.0);
  p.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kEq, 8.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-6);  // all weight on x
  EXPECT_NEAR(s.values[0], 4.0, 1e-6);
}

TEST(Simplex, NegativeRhs) {
  // min -x s.t. -x >= -7 (i.e. x <= 7), x >= 0 -> x = 7.
  Problem p;
  const int x = p.add_variable(0, kInfinity, -1.0);
  p.add_constraint({{x, -1.0}}, Relation::kGe, -7.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 7.0, 1e-7);
}

TEST(Simplex, BigMStyleIndicatorRelaxation) {
  // The LP relaxation pattern produced by the ReLU encoder:
  // y >= z, y >= 0, y <= z + M(1-d), y <= M d with d in [0,1] relaxed.
  Problem p;
  p.set_maximize(true);
  const double big_m = 10.0;
  const int z = p.add_variable(-5, 5, 0.0);
  const int y = p.add_variable(0, big_m, 1.0);
  const int d = p.add_variable(0, 1, 0.0);
  p.add_constraint({{y, 1.0}, {z, -1.0}}, Relation::kGe, 0.0);
  p.add_constraint({{y, 1.0}, {z, -1.0}, {d, big_m}}, Relation::kLe, big_m);
  p.add_constraint({{y, 1.0}, {d, -big_m}}, Relation::kLe, 0.0);
  p.add_constraint({{z, 1.0}}, Relation::kLe, 3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  // Relaxation optimum: y as large as possible; y <= z + M(1-d), y <= Md.
  // Balance: z=3 -> y <= 3 + 10(1-d), y <= 10d -> d=1: y <= 3... but
  // equality at d where 3+10-10d = 10d -> d=0.65, y=6.5.
  EXPECT_NEAR(s.objective, 6.5, 1e-6);
}

TEST(Simplex, ReportsIterationCount) {
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, 1, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  const Solution s = solve(p);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GT(s.iterations, 0);
}

// Property test: random feasible-by-construction LPs. A random point x0 in
// a box is picked, rows are generated to be satisfied by x0, so the LP is
// feasible; the solver must return kOptimal with a feasible point whose
// objective is at least as good as x0's.
class RandomFeasibleLp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFeasibleLp, OptimalBeatsWitnessPoint) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.uniform_index(6));
  const int m = 1 + static_cast<int>(rng.uniform_index(8));
  Problem p;
  std::vector<double> witness(static_cast<std::size_t>(n));
  p.set_maximize(true);
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-5, 0);
    const double hi = rng.uniform(0.5, 5);
    p.add_variable(lo, hi, rng.normal());
    witness[static_cast<std::size_t>(j)] = rng.uniform(lo, hi);
  }
  for (int i = 0; i < m; ++i) {
    LinearTerms terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double coef = rng.normal();
      terms.emplace_back(j, coef);
      lhs += coef * witness[static_cast<std::size_t>(j)];
    }
    // Slack it so the witness satisfies the row strictly.
    p.add_constraint(std::move(terms), Relation::kLe,
                     lhs + rng.uniform(0.1, 2.0));
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_LE(p.max_violation(s.values), 1e-6);
  EXPECT_GE(s.objective, p.objective_value(witness) - 1e-6);
  // All variable bounds respected.
  for (int j = 0; j < n; ++j) {
    EXPECT_GE(s.values[static_cast<std::size_t>(j)],
              p.variable(j).lower - 1e-7);
    EXPECT_LE(s.values[static_cast<std::size_t>(j)],
              p.variable(j).upper + 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFeasibleLp,
                         ::testing::Range<std::uint64_t>(0, 40));

// Property test: equality-constrained random LPs built around a witness.
class RandomEqualityLp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomEqualityLp, FindsFeasiblePoint) {
  Rng rng(GetParam() + 1000);
  const int n = 3 + static_cast<int>(rng.uniform_index(4));
  Problem p;
  std::vector<double> witness(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    p.add_variable(-10, 10, rng.normal());
    witness[static_cast<std::size_t>(j)] = rng.uniform(-3, 3);
  }
  const int m = 1 + static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n - 1)));
  for (int i = 0; i < m; ++i) {
    LinearTerms terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double coef = rng.normal();
      terms.emplace_back(j, coef);
      lhs += coef * witness[static_cast<std::size_t>(j)];
    }
    p.add_constraint(std::move(terms), Relation::kEq, lhs);
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_LE(p.max_violation(s.values), 1e-6);
  EXPECT_LE(s.objective, p.objective_value(witness) + 1e-6);  // minimize
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEqualityLp,
                         ::testing::Range<std::uint64_t>(0, 25));


// ---------------------------------------------------------------------------
// The kept basis: lp::Simplex re-optimizes from its last basis. Every warm
// answer is checked against a cold SimplexSolver solve of the same LP: the
// same status, the objective within 1e-7 relative, and values that satisfy
// the rows to 1e-6.
// ---------------------------------------------------------------------------

/// A feasible LP over n variables that cycle through boxed, [0, 1] and
/// fixed columns, with m rows (<=, >=, =) through a point x0 inside the
/// bounds (0 or 1 on the [0, 1] columns), plus a pair b0, b1 in [0, 1]
/// with b0 + b1 >= 1, so fixing both at 0 makes the LP infeasible. Every
/// variable is bounded, so no LP over its rows is unbounded.
Problem kept_basis_lp(Rng& rng, int n, int m, std::vector<double>& x0) {
  Problem p;
  x0.clear();
  for (int j = 0; j < n; ++j) {
    double lo = 0.0, hi = 1.0;
    double x = rng.bernoulli(0.5) ? 1.0 : 0.0;
    if (j % 3 == 0) {
      lo = rng.uniform(-3.0, 0.0);
      hi = lo + rng.uniform(0.5, 4.0);
      x = rng.uniform(lo, hi);
    } else if (j % 3 == 2) {
      lo = hi = x = rng.uniform(-1.0, 1.0);
    }
    p.add_variable(lo, hi);
    x0.push_back(x);
  }
  const Relation relations[] = {Relation::kLe, Relation::kGe, Relation::kEq};
  for (int i = 0; i < m; ++i) {
    LinearTerms terms;
    double ax = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.4) continue;
      const double c = rng.uniform(-1.0, 1.0);
      terms.emplace_back(j, c);
      ax += c * x0[static_cast<std::size_t>(j)];
    }
    const Relation rel = relations[i % 3];
    const double margin = rel == Relation::kEq ? 0.0 : rng.uniform(0.0, 1.0);
    p.add_constraint(std::move(terms), rel,
                     rel == Relation::kGe ? ax - margin : ax + margin);
  }
  const int b0 = p.add_variable(0.0, 1.0);
  const int b1 = p.add_variable(0.0, 1.0);
  p.add_constraint({{b0, 1.0}, {b1, 1.0}}, Relation::kGe, 1.0);
  x0.push_back(1.0);
  x0.push_back(0.0);
  return p;
}

std::vector<double> random_objective(Rng& rng, int n) {
  std::vector<double> c(static_cast<std::size_t>(n));
  for (double& v : c) v = rng.uniform(-1.0, 1.0);
  return c;
}

/// `p` with objective `c` and the given bounds, solved cold.
Solution cold_solve(Problem p, const std::vector<double>& c, bool maximize,
                    const std::vector<double>& lo,
                    const std::vector<double>& hi) {
  for (int j = 0; j < p.num_variables(); ++j) {
    p.variable(j).objective = c[static_cast<std::size_t>(j)];
    p.variable(j).lower = lo[static_cast<std::size_t>(j)];
    p.variable(j).upper = hi[static_cast<std::size_t>(j)];
  }
  p.set_maximize(maximize);
  return solve(p);
}

void expect_matches_cold(const Problem& p, const Solution& warm,
                         const Solution& cold, const std::vector<double>& lo,
                         const std::vector<double>& hi) {
  ASSERT_EQ(warm.status, cold.status);
  if (cold.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-7 * std::max(1.0, std::abs(cold.objective)));
  EXPECT_LE(p.max_violation(warm.values), 1e-6);
  for (std::size_t j = 0; j < warm.values.size(); ++j) {
    EXPECT_GE(warm.values[j], lo[j]);
    EXPECT_LE(warm.values[j], hi[j]);
  }
}

const std::pair<int, int> kKeptBasisShapes[] = {
    {3, 2}, {6, 4}, {10, 8}, {20, 12}, {30, 25}, {40, 10}};

TEST(Simplex, ReoptimizeMatchesColdSolve) {
  Rng rng(71);
  for (const auto& [n0, m] : kKeptBasisShapes) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> x0;
      Problem p = kept_basis_lp(rng, n0, m, x0);
      const int n = p.num_variables();
      std::vector<double> lo, hi;
      for (int j = 0; j < n; ++j) {
        lo.push_back(p.variable(j).lower);
        hi.push_back(p.variable(j).upper);
      }
      if (rep == 3) {  // the infeasible pair: every objective reports it
        lo[static_cast<std::size_t>(n - 1)] = hi[static_cast<std::size_t>(n - 1)] = 0.0;
        lo[static_cast<std::size_t>(n - 2)] = hi[static_cast<std::size_t>(n - 2)] = 0.0;
        p.variable(n - 1).upper = 0.0;
        p.variable(n - 2).upper = 0.0;
      }
      Simplex lp(p);
      for (int step = 0; step < 8; ++step) {
        SCOPED_TRACE("n " + std::to_string(n) + " m " + std::to_string(m) +
                     " rep " + std::to_string(rep) + " objective " +
                     std::to_string(step));
        const std::vector<double> c = random_objective(rng, n);
        const bool maximize = rng.bernoulli(0.5);
        const Solution warm = lp.optimize(c, maximize);
        expect_matches_cold(p, warm, cold_solve(p, c, maximize, lo, hi), lo,
                            hi);
        if (step == 0) {  // the first call is SimplexSolver::solve, bit for bit
          const Solution cold = cold_solve(p, c, maximize, lo, hi);
          EXPECT_EQ(warm.objective, cold.objective);
          EXPECT_EQ(warm.values, cold.values);
          EXPECT_EQ(warm.iterations, cold.iterations);
        }
      }
    }
  }
}

TEST(Simplex, ResolveMatchesColdSolve) {
  Rng rng(73);
  long warm_answers = 0, declines = 0, infeasible_warm = 0;
  for (const auto& [n0, m] : kKeptBasisShapes) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<double> x0;
      const Problem p = kept_basis_lp(rng, n0, m, x0);
      const int n = p.num_variables();
      std::vector<double> base_lo, base_hi;
      for (int j = 0; j < n; ++j) {
        base_lo.push_back(p.variable(j).lower);
        base_hi.push_back(p.variable(j).upper);
      }
      const std::vector<double> c = random_objective(rng, n);
      const bool maximize = rng.bernoulli(0.5);
      Simplex lp(p);
      expect_matches_cold(p, lp.optimize(c, maximize),
                          cold_solve(p, c, maximize, base_lo, base_hi),
                          base_lo, base_hi);
      std::vector<double> lo = base_lo, hi = base_hi;
      for (int step = 0; step < 40; ++step) {
        const int kind = step % 5;
        auto pick = [&] {
          return static_cast<std::size_t>(rng.uniform_index(
              static_cast<std::uint64_t>(n)));
        };
        if (kind == 0) {  // tighten a few domains around x0, as branching
          for (int k = 0; k < 3; ++k) {  // does, and fix some [0, 1] columns
            const std::size_t j = pick();
            if (base_lo[j] == 0.0 && base_hi[j] == 1.0) {
              lo[j] = hi[j] = rng.bernoulli(0.8) ? x0[j] : 1.0 - x0[j];
            } else if (lo[j] <= x0[j] && x0[j] <= hi[j]) {
              lo[j] = rng.uniform(lo[j], x0[j]);
              hi[j] = rng.uniform(x0[j], hi[j]);
            }
          }
        } else if (kind == 1) {  // flip fixed [0, 1] columns to the other end
          for (std::size_t j = 0; j < lo.size(); ++j) {
            if (base_lo[j] == 0.0 && base_hi[j] == 1.0 && lo[j] == hi[j] &&
                (lo[j] == 0.0 || lo[j] == 1.0) && rng.bernoulli(0.5)) {
              lo[j] = hi[j] = 1.0 - lo[j];
            }
          }
          const std::size_t j = pick();  // and fix one more to an end
          if (base_lo[j] == 0.0 && base_hi[j] == 1.0) {
            lo[j] = hi[j] = rng.bernoulli(0.5) ? 1.0 : 0.0;
          }
        } else if (kind == 2) {  // relax a few back to the base domain
          // (a nonbasic column moves to the end of it that its reduced
          // cost keeps optimal)
          for (int k = 0; k < 3; ++k) {
            const std::size_t j = pick();
            if ((base_lo[j] == 0.0 && base_hi[j] == 1.0) || rng.bernoulli(0.2)) {
              lo[j] = base_lo[j];
              hi[j] = base_hi[j];
            }
          }
        } else if (kind == 3) {  // the infeasible node
          for (const int j : {n - 2, n - 1}) {
            lo[static_cast<std::size_t>(j)] = hi[static_cast<std::size_t>(j)] = 0.0;
          }
        } else {  // its sibling: both back to [0, 1], one fixed at 1
          for (const int j : {n - 2, n - 1}) {
            lo[static_cast<std::size_t>(j)] = 0.0;
            hi[static_cast<std::size_t>(j)] = 1.0;
          }
          lo[static_cast<std::size_t>(n - 1)] = 1.0;
        }
        SCOPED_TRACE("n " + std::to_string(n) + " m " + std::to_string(m) +
                     " rep " + std::to_string(rep) + " step " +
                     std::to_string(step));
        const Solution cold = cold_solve(p, c, maximize, lo, hi);
        std::optional<Solution> warm = lp.resolve(lo, hi);
        if (warm) {
          ++warm_answers;
          if (warm->status == SolveStatus::kInfeasible) ++infeasible_warm;
        } else {
          ++declines;
          lp.rebuild(lo, hi);
          warm = lp.optimize(c, maximize);
        }
        expect_matches_cold(p, *warm, cold, lo, hi);
      }
    }
  }
  // Every column here is bounded, so a re-solve declines only at its
  // step cap: nearly all finish warm, infeasible nodes included.
  EXPECT_GT(warm_answers, 10 * declines);
  EXPECT_GT(infeasible_warm, 0);
}

TEST(Simplex, ResolveDeclinesWhatItCannotFinishWarm) {
  const std::vector<double> objective{1.0, 2.0};
  {  // Relaxed boxed columns open at once, at the bound their reduced
     // cost asks for: x in [0, 1] -> [2, 3] (off its old domain) and then
     // back, both warm.
    Problem p;
    p.add_variable(0.0, 1.0);
    p.add_variable(0.0, 5.0);
    p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGe, 2.5);
    Simplex lp(p);
    ASSERT_EQ(lp.optimize(objective, false).status, SolveStatus::kOptimal);
    const std::optional<Solution> off = lp.resolve({2.0, 0.0}, {3.0, 5.0});
    ASSERT_TRUE(off.has_value());
    EXPECT_NEAR(off->objective, 2.5, 1e-9);  // x = 2.5, y = 0
    const std::optional<Solution> back = lp.resolve({0.0, 0.0}, {1.0, 5.0});
    ASSERT_TRUE(back.has_value());
    EXPECT_NEAR(back->objective, 1.0 + 3.0, 1e-9);  // x = 1, y = 1.5
  }
  {  // A relaxed bound that leaves x where only its infinite side keeps
     // the basis dual feasible: min -x + y, x + y <= 10, x in [0, 3]
     // -> [0, inf). x is held at 3 through the dual pass and would then
     // rest inside its new domain.
    Problem p;
    p.add_variable(0.0, 3.0);
    p.add_variable(0.0, 5.0);
    p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLe, 10.0);
    const std::vector<double> c{-1.0, 1.0};
    Simplex lp(p);
    ASSERT_EQ(lp.optimize(c, false).status, SolveStatus::kOptimal);
    const std::vector<double> lo{0.0, 0.0}, hi{kInfinity, 5.0};
    EXPECT_FALSE(lp.resolve(lo, hi).has_value());
    // Nothing but a rebuild may follow a decline.
    EXPECT_FALSE(lp.resolve(lo, hi).has_value());
    EXPECT_THROW(lp.optimize(c, false), Error);
    lp.rebuild(lo, hi);
    const Solution s = lp.optimize(c, false);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, -10.0, 1e-9);
  }
  {  // Infeasible while x's relaxation is deferred, feasible once it
     // opens: min x + 2y, x + y >= 1.5, x, y in [0, 1], then x in
     // [0, inf) (held at 1) and y <= 0.2.
    Problem p;
    p.add_variable(0.0, 1.0);
    p.add_variable(0.0, 1.0);
    p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGe, 1.5);
    Simplex lp(p);
    ASSERT_EQ(lp.optimize(objective, false).status, SolveStatus::kOptimal);
    EXPECT_FALSE(lp.resolve({0.0, 0.0}, {kInfinity, 0.2}).has_value());
    lp.rebuild({0.0, 0.0}, {kInfinity, 0.2});
    const Solution s = lp.optimize(objective, false);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 1.5, 1e-9);  // x = 1.5, y = 0
    // With nothing deferred, the same row proves x <= 1, y <= 0.2
    // infeasible warm, and the basis stays warm for the next bounds.
    const std::optional<Solution> inf = lp.resolve({0.0, 0.0}, {1.0, 0.2});
    ASSERT_TRUE(inf.has_value());
    EXPECT_EQ(inf->status, SolveStatus::kInfeasible);
    const std::optional<Solution> again = lp.resolve({0.0, 0.0}, {1.0, 1.0});
    ASSERT_TRUE(again.has_value());
    EXPECT_NEAR(again->objective, 2.0, 1e-9);  // x = 1, y = 0.5
  }
  {  // The step cap: sum x_i = 50 over 100 columns in [0, 1], cheapest
     // first. Fixing the 50 chosen columns at 0 moves the excess one
     // column per dual step, 50 steps against a cap of 4 (1 + 8) = 36.
    Problem p;
    std::vector<double> costs;
    LinearTerms row;
    for (int j = 0; j < 100; ++j) {
      p.add_variable(0.0, 1.0);
      costs.push_back(1.0 + j);
      row.emplace_back(j, 1.0);
    }
    p.add_constraint(std::move(row), Relation::kEq, 50.0);
    Simplex lp(p);
    ASSERT_EQ(lp.optimize(costs, false).status, SolveStatus::kOptimal);
    std::vector<double> lo(100, 0.0), hi(100, 1.0);
    std::fill(hi.begin(), hi.begin() + 50, 0.0);
    EXPECT_FALSE(lp.resolve(lo, hi).has_value());
    lp.rebuild(lo, hi);
    const Solution s = lp.optimize(costs, false);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 50.0 * 75.5, 1e-9);  // columns 51..100
    // A small move stays under the cap: free column 0 again.
    hi[0] = 1.0;
    const std::optional<Solution> warm = lp.resolve(lo, hi);
    ASSERT_TRUE(warm.has_value());
    EXPECT_NEAR(warm->objective, 50.0 * 75.5 - 100.0 + 1.0, 1e-9);
  }
  {  // No warm basis after a cold start that found the LP infeasible.
    Problem p;
    p.add_variable(0.0, 1.0);
    p.add_variable(0.0, 1.0);
    p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGe, 3.0);
    Simplex lp(p);
    EXPECT_EQ(lp.optimize(objective, false).status, SolveStatus::kInfeasible);
    EXPECT_FALSE(lp.resolve({0.0, 0.0}, {2.0, 2.0}).has_value());
    lp.rebuild({0.0, 0.0}, {2.0, 2.0});
    EXPECT_NEAR(lp.optimize(objective, false).objective, 2.0 + 2.0, 1e-9);
  }
}

}  // namespace
}  // namespace safenn::lp
