#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/task_pool.hpp"

namespace safenn::nn {
namespace {

/// Adam / momentum state, one slot per layer.
struct OptimizerState {
  Gradients m;  // first moment (or velocity for momentum)
  Gradients v;  // second moment (Adam only)
  Gradients adam_step;  // preallocated Adam update (no per-step allocation)
  std::size_t step = 0;
};

double grad_norm_inf(const Gradients& g) {
  double m = 0.0;
  for (const auto& w : g.weight_grads) m = std::max(m, w.norm_inf());
  for (const auto& b : g.bias_grads) m = std::max(m, b.norm_inf());
  return m;
}

/// Scales the summed batch gradient to a mean, clips it, and applies one
/// optimizer step on the calling thread: once the reduced `batch_grads`
/// are bitwise equal, the updated parameters (and Adam moments) are too.
void apply_update(const TrainConfig& config, Network& net,
                  OptimizerState& state, Gradients& batch_grads,
                  std::size_t batch) {
  const double inv_batch = 1.0 / static_cast<double>(batch);
  batch_grads.scale(inv_batch);

  if (config.grad_clip > 0.0) {
    const double norm = grad_norm_inf(batch_grads);
    if (norm > config.grad_clip) batch_grads.scale(config.grad_clip / norm);
  }

  switch (config.optimizer) {
    case Optimizer::kSgd:
      net.apply_gradients(batch_grads, config.learning_rate);
      break;
    case Optimizer::kMomentum: {
      state.m.scale(config.momentum);
      state.m.add_scaled(1.0, batch_grads);
      net.apply_gradients(state.m, config.learning_rate);
      break;
    }
    case Optimizer::kAdam: {
      ++state.step;
      // Bias-correction factors are per-step constants; computing the
      // pow() once here instead of per weight entry keeps the inner
      // loops pure multiply-add.
      const double bias1 =
          1.0 - std::pow(config.beta1, static_cast<double>(state.step));
      const double bias2 =
          1.0 - std::pow(config.beta2, static_cast<double>(state.step));
      // m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*g^2, applied per entry.
      for (std::size_t li = 0; li < state.m.weight_grads.size(); ++li) {
        auto update = [&](linalg::Matrix& m, linalg::Matrix& v,
                          const linalg::Matrix& g, linalg::Matrix& out) {
          for (std::size_t r = 0; r < m.rows(); ++r) {
            for (std::size_t c = 0; c < m.cols(); ++c) {
              m(r, c) =
                  config.beta1 * m(r, c) + (1.0 - config.beta1) * g(r, c);
              v(r, c) = config.beta2 * v(r, c) +
                        (1.0 - config.beta2) * g(r, c) * g(r, c);
              const double mh = m(r, c) / bias1;
              const double vh = v(r, c) / bias2;
              out(r, c) = mh / (std::sqrt(vh) + config.adam_eps);
            }
          }
        };
        auto update_vec = [&](linalg::Vector& m, linalg::Vector& v,
                              const linalg::Vector& g, linalg::Vector& out) {
          for (std::size_t i = 0; i < m.size(); ++i) {
            m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * g[i];
            v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * g[i] * g[i];
            const double mh = m[i] / bias1;
            const double vh = v[i] / bias2;
            out[i] = mh / (std::sqrt(vh) + config.adam_eps);
          }
        };
        update(state.m.weight_grads[li], state.v.weight_grads[li],
               batch_grads.weight_grads[li], state.adam_step.weight_grads[li]);
        update_vec(state.m.bias_grads[li], state.v.bias_grads[li],
                   batch_grads.bias_grads[li], state.adam_step.bias_grads[li]);
      }
      net.apply_gradients(state.adam_step, config.learning_rate);
      break;
    }
  }
}

/// Per-worker scratch of the data-parallel engine. One slot per worker,
/// allocated once per train() call and reused for every batch of every
/// epoch; workers only ever touch their own slot.
struct ShardScratch {
  std::size_t begin = 0;  // first batch row of this shard
  std::size_t end = 0;    // one past the last batch row
  linalg::Matrix x;       // shard inputs, (end - begin) x in_dim
  BatchTrace trace;
  linalg::Matrix out_grads;            // dL/d(output), one sample per row
  std::vector<linalg::Matrix> deltas;  // dL/dZ per layer
};

}  // namespace

Trainer::Trainer(TrainConfig config) : config_(std::move(config)) {
  require(config_.epochs > 0, "Trainer: epochs must be positive");
  require(config_.batch_size > 0, "Trainer: batch_size must be positive");
  require(config_.learning_rate > 0.0, "Trainer: learning_rate must be > 0");
}

double Trainer::train(Network& net, const Loss& loss,
                      const std::vector<linalg::Vector>& inputs,
                      const std::vector<linalg::Vector>& targets) {
  require(inputs.size() == targets.size(), "Trainer: inputs/targets mismatch");
  require(!inputs.empty(), "Trainer: empty training set");

  Rng shuffle_rng(config_.shuffle_seed);
  std::vector<std::size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);

  OptimizerState state;
  state.m = net.zero_gradients();
  state.v = net.zero_gradients();
  if (config_.optimizer == Optimizer::kAdam) {
    state.adam_step = net.zero_gradients();
  }

  // Scratch reused across every batch of every epoch: the whole
  // minibatch runs through each layer as one GEMM instead of B matvecs,
  // gradients accumulate into one preallocated Gradients, and the
  // loss/regularizer vectors are hoisted so the epoch loop performs no
  // per-batch allocation once warm.
  const std::size_t in_dim = net.input_size();
  const std::size_t out_dim = net.output_size();
  Gradients batch_grads = net.zero_gradients();
  linalg::Vector sample_out(out_dim);
  linalg::Vector out_grad;
  linalg::Vector reg_grad(out_dim);

  // Per-sample loss (+ optional regularizer): returns the sample's loss
  // and leaves dL/d(output) in `out_grad`. Always invoked on the calling
  // thread in ascending global sample order — the same loss-sum chain at
  // every worker count, and user-provided Loss / OutputRegularizer
  // callables never need to be thread-safe.
  auto sample_loss_grad = [&](const double* output_row,
                              std::size_t idx) -> double {
    std::copy(output_row, output_row + out_dim, sample_out.data());
    double sample_loss = loss.value_and_grad(sample_out, targets[idx], out_grad);
    if (config_.regularizer) {
      reg_grad.fill(0.0);
      const double penalty =
          config_.regularizer(inputs[idx], sample_out, reg_grad);
      sample_loss += config_.regularizer_weight * penalty;
      out_grad.add_scaled(config_.regularizer_weight, reg_grad);
    }
    return sample_loss;
  };

  // Each batch is split into `workers` contiguous row shards;
  // concatenating the shards in ascending order reproduces the batch
  // exactly, so:
  //   Phase F (parallel, one task per shard): pack + forward-trace the
  //     shard rows. Every forward kernel computes each output row from
  //     its own input row only, so shard rows are bitwise identical to
  //     the same rows of a full-batch forward.
  //   Loss (caller, sequential): per-sample losses/gradients in global
  //     ascending order — one floating-point sum chain for any shard
  //     structure, and no thread-safety demands on user code.
  //   Phase D (parallel, one task per shard): per-layer dL/dZ deltas,
  //     again row-independent.
  //   Phase R (parallel, one task per LAYER): chain
  //     accumulate_layer_gradients over the shards in ascending shard
  //     order. add_gemm_tn applies rank-1 updates in ascending row order
  //     with no blocking over the batch dimension, so the chained shard
  //     reduction is bitwise identical to one full-batch accumulation —
  //     for ANY shard structure, hence identical at every worker count.
  // The optimizer step then runs on the caller. At one worker the pool
  // runs every task inline, so the same code is the sequential path.
  const std::size_t workers = std::max<std::size_t>(1, config_.num_workers);
  TaskPool pool(workers);
  std::vector<ShardScratch> shards(workers);

  // Batch-scoped state read by the (reused) task closures.
  std::size_t cur_start = 0;

  std::vector<std::function<void()>> forward_tasks;
  std::vector<std::function<void()>> delta_tasks;
  std::vector<std::function<void()>> reduce_tasks;
  forward_tasks.reserve(workers);
  delta_tasks.reserve(workers);
  reduce_tasks.reserve(net.num_layers());
  for (std::size_t w = 0; w < workers; ++w) {
    forward_tasks.push_back([&, w] {
      ShardScratch& s = shards[w];
      const std::size_t rows = s.end - s.begin;
      if (rows == 0) return;
      s.x.resize(rows, in_dim);
      for (std::size_t r = 0; r < rows; ++r) {
        const linalg::Vector& x = inputs[order[cur_start + s.begin + r]];
        require(x.size() == in_dim, "Trainer: input width mismatch");
        std::copy(x.data(), x.data() + in_dim, s.x.data() + r * in_dim);
      }
      net.forward_trace_batch(s.x, s.trace);
    });
    delta_tasks.push_back([&, w] {
      ShardScratch& s = shards[w];
      if (s.end == s.begin) return;
      net.backward_deltas_batch(s.trace, s.out_grads, s.deltas);
    });
  }
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    reduce_tasks.push_back([&, li] {
      for (const ShardScratch& s : shards) {
        if (s.end == s.begin) continue;
        net.accumulate_layer_gradients(s.trace, s.deltas[li], li, batch_grads);
      }
    });
  }

  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;

    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + config_.batch_size);
      const std::size_t batch = end - start;
      cur_start = start;

      // Contiguous, near-even shards; the reduction is shard-structure
      // agnostic, so balance only affects speed, never results.
      const std::size_t base = batch / workers;
      const std::size_t rem = batch % workers;
      std::size_t row = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        shards[w].begin = row;
        row += base + (w < rem ? 1 : 0);
        shards[w].end = row;
      }

      pool.run(forward_tasks);

      double batch_loss = 0.0;
      for (ShardScratch& s : shards) {
        const std::size_t rows = s.end - s.begin;
        if (rows == 0) continue;
        const linalg::Matrix& outputs = s.trace.post_activations.back();
        s.out_grads.resize(rows, out_dim);
        for (std::size_t r = 0; r < rows; ++r) {
          batch_loss += sample_loss_grad(outputs.data() + r * out_dim,
                                         order[start + s.begin + r]);
          std::copy(out_grad.data(), out_grad.data() + out_dim,
                    s.out_grads.data() + r * out_dim);
        }
      }

      pool.run(delta_tasks);
      batch_grads.zero();
      pool.run(reduce_tasks);

      epoch_loss += batch_loss;
      apply_update(config_, net, state, batch_grads, batch);
    }

    last_epoch_loss = epoch_loss / static_cast<double>(inputs.size());
    if (config_.on_epoch) {
      config_.on_epoch(EpochStats{epoch, last_epoch_loss});
    }
  }
  return last_epoch_loss;
}

double Trainer::evaluate(const Network& net, const Loss& loss,
                         const std::vector<linalg::Vector>& inputs,
                         const std::vector<linalg::Vector>& targets) {
  require(inputs.size() == targets.size(),
          "Trainer::evaluate: inputs/targets mismatch");
  require(!inputs.empty(), "Trainer::evaluate: empty sample set");
  const std::size_t in_dim = net.input_size();
  const std::size_t out_dim = net.output_size();
  // Chunked batched forward: each chunk is one GEMM chain whose rows are
  // bitwise identical to forward() per sample, and the loss sum runs in
  // ascending index order — the result equals the per-sample loop
  // exactly.
  constexpr std::size_t kEvalChunk = 256;
  linalg::Matrix chunk;
  linalg::Vector sample_out(out_dim);
  double total = 0.0;
  for (std::size_t start = 0; start < inputs.size(); start += kEvalChunk) {
    const std::size_t rows = std::min(kEvalChunk, inputs.size() - start);
    chunk.resize(rows, in_dim);
    for (std::size_t r = 0; r < rows; ++r) {
      const linalg::Vector& x = inputs[start + r];
      require(x.size() == in_dim, "Trainer::evaluate: input width mismatch");
      std::copy(x.data(), x.data() + in_dim, chunk.data() + r * in_dim);
    }
    const linalg::Matrix out = net.forward_batch(chunk);
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(out.data() + r * out_dim, out.data() + (r + 1) * out_dim,
                sample_out.data());
      total += loss.value(sample_out, targets[start + r]);
    }
  }
  return total / static_cast<double>(inputs.size());
}

}  // namespace safenn::nn
