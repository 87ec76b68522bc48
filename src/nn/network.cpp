#include "nn/network.hpp"

#include <sstream>

#include "common/error.hpp"

namespace safenn::nn {

void Gradients::add_scaled(double s, const Gradients& rhs) {
  require(weight_grads.size() == rhs.weight_grads.size(),
          "Gradients::add_scaled: layer count mismatch");
  for (std::size_t i = 0; i < weight_grads.size(); ++i) {
    weight_grads[i].add_scaled(s, rhs.weight_grads[i]);
    bias_grads[i].add_scaled(s, rhs.bias_grads[i]);
  }
}

void Gradients::scale(double s) {
  for (auto& w : weight_grads) w *= s;
  for (auto& b : bias_grads) b *= s;
}

void Gradients::zero() {
  for (auto& w : weight_grads) w.fill(0.0);
  for (auto& b : bias_grads) b.fill(0.0);
}

void Network::add_layer(DenseLayer layer) {
  if (!layers_.empty()) {
    require(layer.in_size() == layers_.back().out_size(),
            "Network::add_layer: width mismatch with previous layer");
  }
  layers_.push_back(std::move(layer));
}

Network Network::make_i4xn(std::size_t inputs, std::size_t hidden,
                           std::size_t outputs, Activation hidden_act,
                           Rng& rng) {
  std::vector<std::size_t> widths{inputs, hidden, hidden, hidden, hidden,
                                  outputs};
  return make_mlp(widths, hidden_act, Activation::kIdentity, rng);
}

Network Network::make_mlp(const std::vector<std::size_t>& widths,
                          Activation hidden_act, Activation output_act,
                          Rng& rng) {
  require(widths.size() >= 2, "Network::make_mlp: need at least in+out widths");
  Network net;
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    const bool is_output = (i + 2 == widths.size());
    DenseLayer layer(widths[i], widths[i + 1],
                     is_output ? output_act : hidden_act);
    layer.init_weights(rng);
    net.add_layer(std::move(layer));
  }
  return net;
}

const DenseLayer& Network::layer(std::size_t i) const {
  require(i < layers_.size(), "Network::layer: index out of range");
  return layers_[i];
}

DenseLayer& Network::layer(std::size_t i) {
  require(i < layers_.size(), "Network::layer: index out of range");
  return layers_[i];
}

std::size_t Network::input_size() const {
  require(!layers_.empty(), "Network::input_size: empty network");
  return layers_.front().in_size();
}

std::size_t Network::output_size() const {
  require(!layers_.empty(), "Network::output_size: empty network");
  return layers_.back().out_size();
}

std::size_t Network::num_neurons() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.out_size();
  return n;
}

linalg::Vector Network::forward(const linalg::Vector& x) const {
  require(!layers_.empty(), "Network::forward: empty network");
  linalg::Vector v = x;
  for (const auto& l : layers_) v = l.forward(v);
  return v;
}

linalg::Matrix Network::forward_batch(const linalg::Matrix& x,
                                      linalg::KernelBackend backend) const {
  require(!layers_.empty(), "Network::forward_batch: empty network");
  require(x.cols() == input_size(),
          "Network::forward_batch: input width mismatch");
  require(backend != linalg::KernelBackend::kQuantized,
          "Network::forward_batch: kQuantized is not a float backend");
  linalg::Matrix cur = x;
  linalg::Matrix z;
  for (const auto& l : layers_) {
    l.pre_activation_batch(cur, z);
    activate(l.activation(), z, cur);
  }
  return cur;
}

ForwardTrace Network::forward_trace(const linalg::Vector& x) const {
  require(!layers_.empty(), "Network::forward_trace: empty network");
  ForwardTrace trace;
  trace.input = x;
  trace.pre_activations.reserve(layers_.size());
  trace.post_activations.reserve(layers_.size());
  linalg::Vector v = x;
  for (const auto& l : layers_) {
    linalg::Vector z = l.pre_activation(v);
    v = activate(l.activation(), z);
    trace.pre_activations.push_back(std::move(z));
    trace.post_activations.push_back(v);
  }
  return trace;
}

Gradients Network::backward(const ForwardTrace& trace,
                            const linalg::Vector& output_grad) const {
  Gradients grads = zero_gradients();
  backward_into(trace, output_grad, grads);
  return grads;
}

void Network::backward_into(const ForwardTrace& trace,
                            const linalg::Vector& output_grad,
                            Gradients& grads) const {
  require(trace.pre_activations.size() == layers_.size(),
          "Network::backward_into: trace does not match network depth");
  require(grads.weight_grads.size() == layers_.size(),
          "Network::backward_into: gradient shape mismatch");
  // delta = dL/dz for the current layer, starting from the output.
  linalg::Vector delta = hadamard(
      output_grad,
      activate_derivative(layers_.back().activation(),
                          trace.pre_activations.back()));
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const linalg::Vector& layer_input =
        (li == 0) ? trace.input : trace.post_activations[li - 1];
    grads.weight_grads[li].add_outer(1.0, delta, layer_input);
    grads.bias_grads[li] += delta;
    if (li > 0) {
      linalg::Vector upstream = layers_[li].weights().matvec_transposed(delta);
      delta = hadamard(upstream,
                       activate_derivative(layers_[li - 1].activation(),
                                           trace.pre_activations[li - 1]));
    }
  }
}

void Network::forward_trace_batch(const linalg::Matrix& x,
                                  BatchTrace& trace) const {
  require(!layers_.empty(), "Network::forward_trace_batch: empty network");
  require(x.cols() == input_size(),
          "Network::forward_trace_batch: input width mismatch");
  trace.input = x;
  trace.pre_activations.resize(layers_.size());
  trace.post_activations.resize(layers_.size());
  const linalg::Matrix* cur = &trace.input;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    layers_[li].pre_activation_batch(*cur, trace.pre_activations[li]);
    activate(layers_[li].activation(), trace.pre_activations[li],
             trace.post_activations[li]);
    cur = &trace.post_activations[li];
  }
}

BatchTrace Network::forward_trace_batch(const linalg::Matrix& x) const {
  BatchTrace trace;
  forward_trace_batch(x, trace);
  return trace;
}

void Network::backward_batch(const BatchTrace& trace,
                             const linalg::Matrix& out_grads,
                             Gradients& grads) const {
  std::vector<linalg::Matrix> deltas;
  backward_deltas_batch(trace, out_grads, deltas);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    accumulate_layer_gradients(trace, deltas[li], li, grads);
  }
}

void Network::backward_deltas_batch(const BatchTrace& trace,
                                    const linalg::Matrix& out_grads,
                                    std::vector<linalg::Matrix>& deltas) const {
  require(trace.pre_activations.size() == layers_.size(),
          "Network::backward_deltas_batch: trace does not match network depth");
  const std::size_t batch = trace.input.rows();
  require(out_grads.rows() == batch && out_grads.cols() == output_size(),
          "Network::backward_deltas_batch: output gradient shape mismatch");

  deltas.resize(layers_.size());
  linalg::Matrix upstream, deriv;
  // delta = dL/dZ of the current layer, one sample per row.
  activate_derivative(layers_.back().activation(),
                      trace.pre_activations.back(), deriv);
  {
    linalg::Matrix& delta = deltas.back();
    delta.resize(batch, output_size());
    const double* g = out_grads.data();
    const double* d = deriv.data();
    double* out = delta.data();
    for (std::size_t i = 0; i < delta.size(); ++i) out[i] = g[i] * d[i];
  }

  for (std::size_t li = layers_.size(); li-- > 1;) {
    linalg::Matrix::gemm_into(deltas[li], layers_[li].weights(), upstream);
    activate_derivative(layers_[li - 1].activation(),
                        trace.pre_activations[li - 1], deriv);
    linalg::Matrix& delta = deltas[li - 1];
    delta.resize(batch, layers_[li].in_size());
    const double* u = upstream.data();
    const double* d = deriv.data();
    double* out = delta.data();
    for (std::size_t i = 0; i < delta.size(); ++i) out[i] = u[i] * d[i];
  }
}

void Network::accumulate_layer_gradients(const BatchTrace& trace,
                                         const linalg::Matrix& delta,
                                         std::size_t li,
                                         Gradients& grads) const {
  require(li < layers_.size(),
          "Network::accumulate_layer_gradients: layer index out of range");
  require(grads.weight_grads.size() == layers_.size(),
          "Network::accumulate_layer_gradients: gradient shape mismatch");
  const std::size_t batch = delta.rows();
  const linalg::Matrix& layer_input =
      (li == 0) ? trace.input : trace.post_activations[li - 1];
  // Summed weight gradient of the whole batch in one GEMM; the rank-1
  // update order inside matches per-sample add_outer accumulation.
  grads.weight_grads[li].add_gemm_tn(1.0, delta, layer_input);
  // Bias gradients: column sums of delta, rows ascending.
  double* bg = grads.bias_grads[li].data();
  const std::size_t width = delta.cols();
  for (std::size_t b = 0; b < batch; ++b) {
    const double* row = delta.data() + b * width;
    for (std::size_t c = 0; c < width; ++c) bg[c] += row[c];
  }
}

linalg::Vector Network::input_gradient(const linalg::Vector& x,
                                       std::size_t out_index) const {
  require(out_index < output_size(),
          "Network::input_gradient: output index out of range");
  const ForwardTrace trace = forward_trace(x);
  linalg::Vector delta(output_size());
  delta[out_index] = 1.0;
  delta = hadamard(delta, activate_derivative(layers_.back().activation(),
                                              trace.pre_activations.back()));
  for (std::size_t li = layers_.size(); li-- > 1;) {
    linalg::Vector upstream = layers_[li].weights().matvec_transposed(delta);
    delta = hadamard(upstream,
                     activate_derivative(layers_[li - 1].activation(),
                                         trace.pre_activations[li - 1]));
  }
  return layers_.front().weights().matvec_transposed(delta);
}

Gradients Network::zero_gradients() const {
  Gradients g;
  g.weight_grads.reserve(layers_.size());
  g.bias_grads.reserve(layers_.size());
  for (const auto& l : layers_) {
    g.weight_grads.emplace_back(l.out_size(), l.in_size());
    g.bias_grads.emplace_back(l.out_size());
  }
  return g;
}

void Network::apply_gradients(const Gradients& grads, double step) {
  require(grads.weight_grads.size() == layers_.size(),
          "Network::apply_gradients: layer count mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].weights().add_scaled(-step, grads.weight_grads[i]);
    layers_[i].biases().add_scaled(-step, grads.bias_grads[i]);
  }
}

std::string Network::describe() const {
  std::ostringstream os;
  if (layers_.empty()) return "<empty>";
  os << layers_.front().in_size();
  for (const auto& l : layers_) os << '-' << l.out_size();
  os << " (" << to_string(layers_.front().activation()) << ')';
  return os.str();
}

}  // namespace safenn::nn
