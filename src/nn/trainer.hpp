// Mini-batch gradient-descent training (SGD / momentum / Adam).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"

namespace safenn::nn {

/// Per-epoch progress record handed to the TrainConfig::on_epoch callback.
struct EpochStats {
  std::size_t epoch = 0;
  double mean_loss = 0.0;
};

/// Optional per-sample output regularizer. Receives (input, raw output),
/// returns a penalty value and accumulates d(penalty)/d(output) into
/// `grad_out` (already sized to the output width). Used by the hint
/// training of Sec. IV(iii) to penalize safety-property violations.
using OutputRegularizer = std::function<double(
    const linalg::Vector& input, const linalg::Vector& output,
    linalg::Vector& grad_out)>;

enum class Optimizer { kSgd, kMomentum, kAdam };

struct TrainConfig {
  std::size_t epochs = 50;
  std::size_t batch_size = 32;
  double learning_rate = 1e-3;
  Optimizer optimizer = Optimizer::kAdam;
  double momentum = 0.9;   // kMomentum
  double beta1 = 0.9;      // kAdam
  double beta2 = 0.999;    // kAdam
  double adam_eps = 1e-8;  // kAdam
  /// Per-batch gradient clip on the infinity norm; 0 disables clipping.
  double grad_clip = 10.0;
  std::uint64_t shuffle_seed = 1;
  OutputRegularizer regularizer;  // optional
  double regularizer_weight = 1.0;
  std::function<void(const EpochStats&)> on_epoch;  // optional
  /// Data-parallel workers: every mini-batch is sharded into contiguous
  /// per-worker row ranges that run forward/backward concurrently, with
  /// gradients reduced in fixed ascending shard order. Final weights,
  /// per-epoch losses and optimizer state are bitwise identical for any
  /// worker count (see DESIGN.md "Parallel training & data generation");
  /// one worker runs every task inline on the calling thread.
  std::size_t num_workers = 1;
};

/// Trains a network in place. Stateless between calls except through the
/// network's parameters; optimizer moments live for one train() run.
class Trainer {
 public:
  explicit Trainer(TrainConfig config);

  /// Runs `config.epochs` epochs over the paired samples and returns the
  /// final epoch's mean training loss (including regularizer terms).
  double train(Network& net, const Loss& loss,
               const std::vector<linalg::Vector>& inputs,
               const std::vector<linalg::Vector>& targets);

  /// Mean loss over a sample set without updating parameters. Runs the
  /// forward passes in batched chunks (one GEMM per layer); the result
  /// is bitwise identical to per-sample forward() summed in index order.
  static double evaluate(const Network& net, const Loss& loss,
                         const std::vector<linalg::Vector>& inputs,
                         const std::vector<linalg::Vector>& targets);

 private:
  TrainConfig config_;
};

}  // namespace safenn::nn
