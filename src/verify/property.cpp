#include "verify/property.hpp"

#include "common/error.hpp"

namespace safenn::verify {

bool InputRegion::well_formed() const {
  for (const InputConstraint& c : constraints) {
    for (const auto& [idx, coef] : c.terms) {
      (void)coef;
      if (idx < 0 || static_cast<std::size_t>(idx) >= dims()) return false;
    }
  }
  return true;
}

bool InputRegion::contains(const linalg::Vector& x, double tol) const {
  require(x.size() == box.size(), "InputRegion::contains: dim mismatch");
  for (std::size_t i = 0; i < box.size(); ++i) {
    if (x[i] < box[i].lo - tol || x[i] > box[i].hi + tol) return false;
  }
  for (const InputConstraint& c : constraints) {
    double lhs = 0.0;
    for (const auto& [idx, coef] : c.terms) {
      require(idx >= 0 && static_cast<std::size_t>(idx) < x.size(),
              "InputRegion::contains: constraint index out of range");
      lhs += coef * x[static_cast<std::size_t>(idx)];
    }
    switch (c.relation) {
      case lp::Relation::kLe:
        if (lhs > c.rhs + tol) return false;
        break;
      case lp::Relation::kGe:
        if (lhs < c.rhs - tol) return false;
        break;
      case lp::Relation::kEq:
        if (lhs < c.rhs - tol || lhs > c.rhs + tol) return false;
        break;
    }
  }
  return true;
}

double OutputExpr::evaluate(const linalg::Vector& output) const {
  double acc = 0.0;
  for (const auto& [idx, coef] : terms) {
    require(idx >= 0 && static_cast<std::size_t>(idx) < output.size(),
            "OutputExpr::evaluate: index out of range");
    acc += coef * output[static_cast<std::size_t>(idx)];
  }
  return acc;
}

void check_query(const nn::Network& net, const InputRegion& region,
                 const OutputExpr& expr) {
  require(region.dims() == net.input_size(),
          "verification query: region width != network input width");
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    require(nn::is_piecewise_linear(net.layer(li).activation()),
            "verification query: only ReLU/identity layers are supported; "
            "use the interval verifier for smooth activations");
  }
  for (const auto& [idx, coef] : expr.terms) {
    (void)coef;
    require(idx >= 0 && static_cast<std::size_t>(idx) < net.output_size(),
            "verification query: output index out of range");
  }
  require(region.well_formed(),
          "verification query: side-constraint index outside the region box");
}

bool SafetyProperty::holds_at(const nn::Network& net, const linalg::Vector& x,
                              double tol) const {
  if (!region.contains(x)) return true;  // assumption not met: vacuous
  return expr.evaluate(net.forward(x)) <= threshold + tol;
}

}  // namespace safenn::verify
