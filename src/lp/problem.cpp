#include "lp/problem.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace safenn::lp {

int Problem::add_variable(double lower, double upper, double objective) {
  require(lower <= upper, "Problem::add_variable: lower > upper");
  variables_.push_back(Variable{lower, upper, objective});
  return static_cast<int>(variables_.size()) - 1;
}

int Problem::add_constraint(LinearTerms terms, Relation relation,
                            double rhs) {
  for (const auto& [var, coef] : terms) {
    require(var >= 0 && var < num_variables(),
            "Problem::add_constraint: unknown variable index");
  }
  // Merge duplicate indices so the solver sees each column once per row.
  // The stable sort keeps each index's terms in input order, and each run
  // sums from 0.0 in that order, as accumulating into a map would.
  std::stable_sort(terms.begin(), terms.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < terms.size();) {
    const int var = terms[i].first;
    double sum = 0.0;
    for (; i < terms.size() && terms[i].first == var; ++i) {
      sum += terms[i].second;
    }
    if (sum != 0.0) terms[kept++] = {var, sum};
  }
  terms.resize(kept);
  constraints_.push_back(Constraint{std::move(terms), relation, rhs});
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
