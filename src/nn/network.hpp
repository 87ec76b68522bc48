// Feed-forward network: the unit of training, verification, coverage
// analysis and traceability throughout the library.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace safenn::nn {

/// Per-layer record of one forward pass; consumed by backprop, coverage
/// instrumentation (sign of pre-activations = ReLU branch decisions) and
/// neuron-to-feature traceability.
struct ForwardTrace {
  linalg::Vector input;
  std::vector<linalg::Vector> pre_activations;   // one per layer
  std::vector<linalg::Vector> post_activations;  // one per layer
};

/// Batched counterpart of ForwardTrace: one sample per row of every
/// matrix. The matrices are reused across calls when the trace object is
/// kept alive (no per-batch allocation once warm).
struct BatchTrace {
  linalg::Matrix input;                          // B x in
  std::vector<linalg::Matrix> pre_activations;   // B x out, one per layer
  std::vector<linalg::Matrix> post_activations;  // B x out, one per layer
};

/// Per-layer parameter gradients produced by backprop.
struct Gradients {
  std::vector<linalg::Matrix> weight_grads;
  std::vector<linalg::Vector> bias_grads;

  void add_scaled(double s, const Gradients& rhs);
  void scale(double s);
  void zero();
};

/// Sequential fully-connected network.
class Network {
 public:
  Network() = default;

  /// Appends a layer; its input width must match the current output width.
  void add_layer(DenseLayer layer);

  /// Builds the paper's I4xN topology: `inputs` -> 4 hidden ReLU layers of
  /// width `hidden` -> `outputs` linear. ("I4x60" = inputs, 4 layers of 60.)
  static Network make_i4xn(std::size_t inputs, std::size_t hidden,
                           std::size_t outputs, Activation hidden_act,
                           Rng& rng);

  /// Fully-general MLP builder: widths = {in, h1, ..., out}.
  static Network make_mlp(const std::vector<std::size_t>& widths,
                          Activation hidden_act, Activation output_act,
                          Rng& rng);

  std::size_t num_layers() const { return layers_.size(); }
  const DenseLayer& layer(std::size_t i) const;
  DenseLayer& layer(std::size_t i);

  std::size_t input_size() const;
  std::size_t output_size() const;

  /// Total number of hidden+output neurons (rows across all layers).
  std::size_t num_neurons() const;

  /// Plain inference.
  linalg::Vector forward(const linalg::Vector& x) const;

  /// Batched inference: one sample per row; returns B x output_size().
  /// Each layer is one GEMM instead of B matvecs, and every output row is
  /// bitwise identical to forward() on the corresponding input row. The
  /// float arithmetic is kReference; kQuantized throws (the integer
  /// engine is nn::QuantizedEngine).
  linalg::Matrix forward_batch(const linalg::Matrix& x,
                               linalg::KernelBackend backend =
                                   linalg::KernelBackend::kReference) const;

  /// Inference that records all intermediate values.
  ForwardTrace forward_trace(const linalg::Vector& x) const;

  /// Batched trace, reusing `trace`'s storage across calls.
  void forward_trace_batch(const linalg::Matrix& x, BatchTrace& trace) const;
  BatchTrace forward_trace_batch(const linalg::Matrix& x) const;

  /// Backpropagates dL/d(output) through the recorded trace and returns
  /// parameter gradients.
  Gradients backward(const ForwardTrace& trace,
                     const linalg::Vector& output_grad) const;

  /// Same, but accumulates into pre-shaped `grads` (zero_gradients()
  /// shape) without allocating a Gradients per sample.
  void backward_into(const ForwardTrace& trace,
                     const linalg::Vector& output_grad,
                     Gradients& grads) const;

  /// Batched backprop: row b of `out_grads` is dL/d(output) of sample b.
  /// Accumulates the batch-summed parameter gradients into pre-shaped
  /// `grads`; weight gradients are one delta^T * input GEMM per layer.
  /// The accumulated sums match per-sample backward() summed in row
  /// order bit for bit. Implemented as backward_deltas_batch followed by
  /// accumulate_layer_gradients over every layer.
  void backward_batch(const BatchTrace& trace,
                      const linalg::Matrix& out_grads,
                      Gradients& grads) const;

  /// Delta half of batched backprop: fills `deltas[li]` with dL/dZ of
  /// layer li (one sample per row) for every layer, touching no
  /// parameter gradients. Row b of every delta matrix depends only on
  /// row b of `out_grads` and row b of the trace, so a row-shard of the
  /// batch produces rows bitwise identical to the full batch — the
  /// data-parallel trainer runs this per shard concurrently. `deltas`
  /// is resized to num_layers() and its storage reused across calls.
  void backward_deltas_batch(const BatchTrace& trace,
                             const linalg::Matrix& out_grads,
                             std::vector<linalg::Matrix>& deltas) const;

  /// Gradient half of batched backprop for one layer: accumulates
  /// weight_grads[li] += delta^T * layer_input (rank-1 updates in
  /// ascending row order, via add_gemm_tn) and bias_grads[li] += column
  /// sums of delta in ascending row order. Because the accumulation
  /// order is ascending rows with no blocking over the batch dimension,
  /// chaining this call over consecutive row shards in ascending shard
  /// order is bitwise identical to one call on the full batch — the
  /// reduction-order determinism the parallel trainer relies on.
  void accumulate_layer_gradients(const BatchTrace& trace,
                                  const linalg::Matrix& delta, std::size_t li,
                                  Gradients& grads) const;

  /// Gradient of output component `out_index` w.r.t. the input vector
  /// (used by saliency-based traceability).
  linalg::Vector input_gradient(const linalg::Vector& x,
                                std::size_t out_index) const;

  /// Zero-shaped gradients matching this topology.
  Gradients zero_gradients() const;

  /// Applies `grads` scaled by `-step` to the parameters.
  void apply_gradients(const Gradients& grads, double step);

  /// Human-readable topology, e.g. "84-60-60-60-60-15 (relu)".
  std::string describe() const;

 private:
  std::vector<DenseLayer> layers_;
};

}  // namespace safenn::nn
