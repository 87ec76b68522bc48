// Fully-connected layer.
#pragma once

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "nn/activation.hpp"

namespace safenn::nn {

/// y = act(W x + b). Weights are (out x in), row r holding neuron r's
/// incoming weights — the layout the MILP encoder reads directly.
class DenseLayer {
 public:
  DenseLayer() = default;
  DenseLayer(std::size_t in, std::size_t out, Activation act);

  std::size_t in_size() const { return weights_.cols(); }
  std::size_t out_size() const { return weights_.rows(); }
  Activation activation() const { return activation_; }

  const linalg::Matrix& weights() const { return weights_; }
  const linalg::Vector& biases() const { return biases_; }
  linalg::Matrix& weights() { return weights_; }
  linalg::Vector& biases() { return biases_; }

  /// Pre-activation z = W x + b.
  linalg::Vector pre_activation(const linalg::Vector& x) const;

  /// Batched pre-activation: Z = X W^T + 1 b^T, one sample per row of
  /// `x`. `z` is resized, reusing its storage across calls. Each row is
  /// bitwise identical to pre_activation() on that row.
  void pre_activation_batch(const linalg::Matrix& x,
                            linalg::Matrix& z) const;

  /// Post-activation act(W x + b).
  linalg::Vector forward(const linalg::Vector& x) const;

  /// He/Xavier initialization matched to the activation (He for ReLU,
  /// Xavier otherwise).
  void init_weights(Rng& rng);

 private:
  linalg::Matrix weights_;
  linalg::Vector biases_;
  Activation activation_ = Activation::kIdentity;
};

}  // namespace safenn::nn
