// Linear program container.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace safenn::lp {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Relation { kLe, kGe, kEq };

/// The relation's name in canonical texts (artifacts, cache keys).
inline const char* to_string(Relation r) {
  return r == Relation::kLe ? "le" : r == Relation::kGe ? "ge" : "eq";
}

/// A sparse linear expression: sum of (variable index, coefficient).
using LinearTerms = std::vector<std::pair<int, double>>;

struct Constraint {
  LinearTerms terms;
  Relation relation = Relation::kLe;
  double rhs = 0.0;
};

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
};

/// An LP: optimize c^T x subject to row relations and variable bounds.
/// Construction-only API; solving lives in SimplexSolver.
class Problem {
 public:
  /// Adds a variable, returns its index.
  int add_variable(double lower, double upper, double objective = 0.0);

  /// Adds a row; duplicate variable entries in `terms` are summed.
  int add_constraint(LinearTerms terms, Relation relation, double rhs);

  void set_objective(int var, double coefficient);
  void set_maximize(bool maximize) { maximize_ = maximize; }

  bool maximize() const { return maximize_; }
  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  const Variable& variable(int i) const;
  Variable& variable(int i);
  const Constraint& constraint(int i) const;

  /// Evaluates the objective at a point.
  double objective_value(const std::vector<double>& x) const;

  /// Maximum row violation at a point (0 when feasible w.r.t. rows).
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  bool maximize_ = false;
};

}  // namespace safenn::lp
