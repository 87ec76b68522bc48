#include "milp/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace safenn::milp {

int Model::add_variable(double lower, double upper, VarType type,
                        double objective) {
  if (type == VarType::kBinary) {
    lower = std::max(lower, 0.0);
    upper = std::min(upper, 1.0);
  }
  const int idx = problem_.add_variable(lower, upper, objective);
  types_.push_back(type);
  if (type != VarType::kContinuous) integral_.push_back(idx);
  return idx;
}

int Model::add_constraint(lp::LinearTerms terms, lp::Relation relation,
                          double rhs) {
  return problem_.add_constraint(std::move(terms), relation, rhs);
}

void Model::set_objective(int var, double coefficient) {
  problem_.set_objective(var, coefficient);
}

void Model::set_maximize(bool maximize) { problem_.set_maximize(maximize); }

VarType Model::var_type(int i) const {
  require(i >= 0 && static_cast<std::size_t>(i) < types_.size(),
          "Model::var_type: out of range");
  return types_[static_cast<std::size_t>(i)];
}

bool Model::is_integral(const std::vector<double>& x, double tol) const {
  for (int idx : integral_) {
    const double v = x[static_cast<std::size_t>(idx)];
    if (std::abs(v - std::round(v)) > tol) return false;
  }
  return true;
}

}  // namespace safenn::milp
