// Safety property language.
//
// The paper's case-study property: "if there is a vehicle in the left of
// the ego vehicle, the predictor never suggests a large left velocity";
// formally, over an input region describing 'vehicle on the left', the
// mean lateral-velocity output stays below a threshold. A SafetyProperty
// is exactly that shape: an input region (assumption) plus a linear bound
// on the outputs (guarantee).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "lp/problem.hpp"
#include "verify/interval.hpp"

namespace safenn::verify {

/// A linear constraint over the *input* variables of a network, used to
/// carve non-box assumptions (e.g. "left-gap distance <= 10m AND
/// relative speed >= 0").
struct InputConstraint {
  lp::LinearTerms terms;  // indices are input dimensions
  lp::Relation relation = lp::Relation::kLe;
  double rhs = 0.0;
};

/// Assumption region: a bounding box plus optional linear side constraints.
struct InputRegion {
  Box box;
  std::vector<InputConstraint> constraints;

  std::size_t dims() const { return box.size(); }

  /// True when every side-constraint index names a box dimension, i.e.
  /// lies in [0, dims()). Loaders and constructors of regions check it.
  bool well_formed() const;

  /// True when `x` lies in the box and satisfies all side constraints
  /// up to `tol`.
  bool contains(const linalg::Vector& x, double tol = 1e-7) const;
};

/// A linear functional over the network's raw outputs.
struct OutputExpr {
  lp::LinearTerms terms;  // indices are output dimensions

  double evaluate(const linalg::Vector& output) const;
};

/// "For all inputs in `region`: expr(N(x)) <= threshold."
struct SafetyProperty {
  std::string name;
  InputRegion region;
  OutputExpr expr;
  double threshold = 0.0;

  /// True when the property holds at the single point `x`.
  bool holds_at(const nn::Network& net, const linalg::Vector& x,
                double tol = 1e-9) const;
};

/// The one query check, run at every verification entry point. Throws
/// safenn::Error unless the region is as wide as the network's input,
/// every layer is piecewise linear (ReLU/identity), every output index of
/// `expr` names a network output, and the region is well_formed().
void check_query(const nn::Network& net, const InputRegion& region,
                 const OutputExpr& expr = {});

}  // namespace safenn::verify
