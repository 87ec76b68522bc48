// Activation functions.
//
// The paper's MC/DC argument (Table I / Sec. II) contrasts smooth
// activations (atan: no branches, MC/DC trivially satisfiable with one
// test) against ReLU (one if-then-else per neuron, exponentially many
// branch combinations). We therefore carry per-activation metadata:
// whether the function is piecewise-linear and how many branches a
// neuron contributes.
#pragma once

#include <string>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace safenn::nn {

enum class Activation {
  kIdentity,
  kRelu,
  kTanh,
  kAtan,     // tan^-1, the smooth activation named in the paper
  kSigmoid,
};

/// Applies the activation element-wise.
double activate(Activation a, double x);
linalg::Vector activate(Activation a, const linalg::Vector& x);
/// Batched variant (one sample per row); `out` is resized and its storage
/// reused across calls. The activation dispatch is hoisted out of the
/// element loop.
void activate(Activation a, const linalg::Matrix& z, linalg::Matrix& out);

/// Derivative with respect to the pre-activation value.
double activate_derivative(Activation a, double x);
linalg::Vector activate_derivative(Activation a, const linalg::Vector& x);
void activate_derivative(Activation a, const linalg::Matrix& z,
                         linalg::Matrix& out);

/// True for activations that are piecewise linear (ReLU, identity); these
/// admit exact MILP encodings. Smooth activations are verified through
/// interval abstraction only.
bool is_piecewise_linear(Activation a);

/// Number of decision branches a single neuron with this activation
/// contributes to MC/DC analysis (0 for smooth/identity, 1 for ReLU).
int branch_count(Activation a);

std::string to_string(Activation a);
Activation activation_from_string(const std::string& name);

}  // namespace safenn::nn
