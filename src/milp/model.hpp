// Mixed-integer linear model: an lp::Problem plus integrality marks.
#pragma once

#include <vector>

#include "lp/problem.hpp"

namespace safenn::milp {

enum class VarType { kContinuous, kBinary, kInteger };

/// MILP container. The ReLU encoder (verify/milp_encoder.hpp) builds one
/// of these: continuous neuron variables plus one binary per unstable
/// ReLU phase decision.
class Model {
 public:
  /// Adds a variable; binaries are clamped into [0, 1].
  int add_variable(double lower, double upper, VarType type,
                   double objective = 0.0);

  int add_constraint(lp::LinearTerms terms, lp::Relation relation, double rhs);

  void set_objective(int var, double coefficient);
  void set_maximize(bool maximize);

  bool maximize() const { return problem_.maximize(); }
  int num_variables() const { return problem_.num_variables(); }
  int num_constraints() const { return problem_.num_constraints(); }
  VarType var_type(int i) const;

  /// Indices of all binary/integer variables.
  const std::vector<int>& integral_variables() const { return integral_; }

  const lp::Problem& problem() const { return problem_; }
  lp::Problem& problem() { return problem_; }

  /// True when `x` satisfies integrality within `tol` on all marked vars.
  bool is_integral(const std::vector<double>& x, double tol) const;

 private:
  lp::Problem problem_;
  std::vector<VarType> types_;
  std::vector<int> integral_;
};

}  // namespace safenn::milp
