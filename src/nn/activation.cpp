#include "nn/activation.hpp"

#include <cmath>

#include "common/error.hpp"

namespace safenn::nn {

double activate(Activation a, double x) {
  switch (a) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kTanh: return std::tanh(x);
    case Activation::kAtan: return std::atan(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  throw Error("activate: unknown activation");
}

linalg::Vector activate(Activation a, const linalg::Vector& x) {
  linalg::Vector out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = activate(a, x[i]);
  return out;
}

void activate(Activation a, const linalg::Matrix& z, linalg::Matrix& out) {
  out.resize(z.rows(), z.cols());
  const double* in = z.data();
  double* o = out.data();
  const std::size_t n = z.size();
  switch (a) {
    case Activation::kIdentity:
      for (std::size_t i = 0; i < n; ++i) o[i] = in[i];
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) o[i] = in[i] > 0.0 ? in[i] : 0.0;
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) o[i] = std::tanh(in[i]);
      return;
    case Activation::kAtan:
      for (std::size_t i = 0; i < n; ++i) o[i] = std::atan(in[i]);
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) o[i] = 1.0 / (1.0 + std::exp(-in[i]));
      return;
  }
  throw Error("activate: unknown activation");
}

double activate_derivative(Activation a, double x) {
  switch (a) {
    case Activation::kIdentity: return 1.0;
    case Activation::kRelu: return x > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case Activation::kAtan: return 1.0 / (1.0 + x * x);
    case Activation::kSigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s);
    }
  }
  throw Error("activate_derivative: unknown activation");
}

linalg::Vector activate_derivative(Activation a, const linalg::Vector& x) {
  linalg::Vector out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = activate_derivative(a, x[i]);
  return out;
}

void activate_derivative(Activation a, const linalg::Matrix& z,
                         linalg::Matrix& out) {
  out.resize(z.rows(), z.cols());
  const double* in = z.data();
  double* o = out.data();
  const std::size_t n = z.size();
  switch (a) {
    case Activation::kIdentity:
      for (std::size_t i = 0; i < n; ++i) o[i] = 1.0;
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) o[i] = in[i] > 0.0 ? 1.0 : 0.0;
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) {
        const double t = std::tanh(in[i]);
        o[i] = 1.0 - t * t;
      }
      return;
    case Activation::kAtan:
      for (std::size_t i = 0; i < n; ++i) o[i] = 1.0 / (1.0 + in[i] * in[i]);
      return;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        const double s = 1.0 / (1.0 + std::exp(-in[i]));
        o[i] = s * (1.0 - s);
      }
      return;
  }
  throw Error("activate_derivative: unknown activation");
}

bool is_piecewise_linear(Activation a) {
  return a == Activation::kIdentity || a == Activation::kRelu;
}

int branch_count(Activation a) {
  return a == Activation::kRelu ? 1 : 0;
}

std::string to_string(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
    case Activation::kTanh: return "tanh";
    case Activation::kAtan: return "atan";
    case Activation::kSigmoid: return "sigmoid";
  }
  throw Error("to_string: unknown activation");
}

Activation activation_from_string(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "tanh") return Activation::kTanh;
  if (name == "atan") return Activation::kAtan;
  if (name == "sigmoid") return Activation::kSigmoid;
  throw Error("activation_from_string: unknown activation '" + name + "'");
}

}  // namespace safenn::nn
