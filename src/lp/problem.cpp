#include "lp/problem.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"

namespace safenn::lp {

int Problem::add_variable(double lower, double upper, double objective) {
  require(lower <= upper, "Problem::add_variable: lower > upper");
  variables_.push_back(Variable{lower, upper, objective});
  return static_cast<int>(variables_.size()) - 1;
}

int Problem::add_constraint(LinearTerms terms, Relation relation,
                            double rhs) {
  // Merge duplicate indices so the solver sees each column once per row.
  std::map<int, double> merged;
  for (const auto& [var, coef] : terms) {
    require(var >= 0 && var < num_variables(),
            "Problem::add_constraint: unknown variable index");
    merged[var] += coef;
  }
  LinearTerms clean;
  clean.reserve(merged.size());
  for (const auto& [var, coef] : merged) {
    if (coef != 0.0) clean.emplace_back(var, coef);
  }
  constraints_.push_back(Constraint{std::move(clean), relation, rhs});
  return static_cast<int>(constraints_.size()) - 1;
}

void Problem::set_objective(int var, double coefficient) {
  require(var >= 0 && var < num_variables(),
          "Problem::set_objective: unknown variable index");
  variables_[static_cast<std::size_t>(var)].objective = coefficient;
}

const Variable& Problem::variable(int i) const {
  require(i >= 0 && i < num_variables(), "Problem::variable: out of range");
  return variables_[static_cast<std::size_t>(i)];
}

Variable& Problem::variable(int i) {
  require(i >= 0 && i < num_variables(), "Problem::variable: out of range");
  return variables_[static_cast<std::size_t>(i)];
}

const Constraint& Problem::constraint(int i) const {
  require(i >= 0 && i < num_constraints(),
          "Problem::constraint: out of range");
  return constraints_[static_cast<std::size_t>(i)];
}

double Problem::objective_value(const std::vector<double>& x) const {
  require(x.size() == variables_.size(),
          "Problem::objective_value: dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i)
    acc += variables_[i].objective * x[i];
  return acc;
}

double Problem::max_violation(const std::vector<double>& x) const {
  require(x.size() == variables_.size(),
          "Problem::max_violation: dimension mismatch");
  double worst = 0.0;
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const auto& [var, coef] : c.terms)
      lhs += coef * x[static_cast<std::size_t>(var)];
    double violation = 0.0;
    switch (c.relation) {
      case Relation::kLe: violation = lhs - c.rhs; break;
      case Relation::kGe: violation = c.rhs - lhs; break;
      case Relation::kEq: violation = std::abs(lhs - c.rhs); break;
    }
    worst = std::max(worst, violation);
  }
  return worst;
}

}  // namespace safenn::lp
