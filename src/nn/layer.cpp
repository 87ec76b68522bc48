#include "nn/layer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace safenn::nn {

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Activation act)
    : weights_(out, in), biases_(out), activation_(act) {}

linalg::Vector DenseLayer::pre_activation(const linalg::Vector& x) const {
  linalg::Vector z = weights_.matvec(x);
  z += biases_;
  return z;
}

linalg::Vector DenseLayer::forward(const linalg::Vector& x) const {
  return activate(activation_, pre_activation(x));
}

void DenseLayer::pre_activation_batch(const linalg::Matrix& x,
                                      linalg::Matrix& z) const {
  require(x.cols() == in_size(),
          "DenseLayer::pre_activation_batch: dimension mismatch");
  z.resize(x.rows(), out_size());
  z.fill(0.0);
  z.add_gemm_nt(1.0, x, weights_);
  // Bias after the full W x accumulation, matching the per-sample
  // rounding (z = matvec(x); z += biases).
  const double* b = biases_.data();
  for (std::size_t r = 0; r < z.rows(); ++r) {
    double* row = z.data() + r * z.cols();
    for (std::size_t c = 0; c < z.cols(); ++c) row[c] += b[c];
  }
}

void DenseLayer::init_weights(Rng& rng) {
  const double fan_in = static_cast<double>(in_size());
  const double fan_out = static_cast<double>(out_size());
  double stddev;
  if (activation_ == Activation::kRelu) {
    stddev = std::sqrt(2.0 / fan_in);  // He init
  } else {
    stddev = std::sqrt(2.0 / (fan_in + fan_out));  // Xavier init
  }
  for (std::size_t r = 0; r < weights_.rows(); ++r)
    for (std::size_t c = 0; c < weights_.cols(); ++c)
      weights_(r, c) = rng.normal(0.0, stddev);
  biases_.fill(0.0);
}

}  // namespace safenn::nn
