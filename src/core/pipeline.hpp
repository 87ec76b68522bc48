// Motion-predictor training and verification pipeline.
//
// Reproduces the paper's case study artifact: an I4xN MDN predictor
// (84 inputs -> 4 hidden ReLU layers of width N -> Gaussian-mixture
// parameters over 2-D actions), trained on simulator data, then verified
// for the maximum mean lateral velocity under "vehicle on the left"
// (Table II's query).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "highway/safety_rules.hpp"
#include "nn/mdn.hpp"
#include "nn/trainer.hpp"
#include "verify/verifier.hpp"

namespace safenn::core {

struct PredictorConfig {
  std::size_t hidden_width = 10;        // N in "I4xN"
  std::size_t mixture_components = 3;   // K of the Gaussian mixture
  std::uint64_t weight_seed = 1;
  nn::TrainConfig train;                // epochs/batch/lr defaults apply

  PredictorConfig() {
    train.epochs = 30;
    train.batch_size = 64;
    train.learning_rate = 2e-3;
  }
};

struct TrainedPredictor {
  nn::Network network;
  nn::MdnHead head{1, 1};  // re-assigned by train_motion_predictor
  double final_loss = 0.0;

  /// Predicted action distribution for an encoded scene.
  nn::GaussianMixture predict(const linalg::Vector& scene) const;

  /// Batched prediction, one scene per row: every layer is one GEMM
  /// instead of B matvecs, and row i of the result is bitwise identical
  /// to predict() on row i.
  std::vector<nn::GaussianMixture> predict_batch(
      const linalg::Matrix& scenes) const;
  std::vector<nn::GaussianMixture> predict_batch(
      const std::vector<linalg::Vector>& scenes) const;
};

/// Packs scenes into the batch-as-rows matrix convention.
linalg::Matrix pack_scenes(const std::vector<linalg::Vector>& scenes);

/// Trains an I4xN predictor on (scene, action) data with the MDN loss.
TrainedPredictor train_motion_predictor(const data::Dataset& data,
                                        const PredictorConfig& config);

/// Table II query: exact maximum over the vehicle-on-left region of any
/// mixture component's mean lateral velocity. (The mixture mean is a
/// convex combination of component means, so this over-approximates — and
/// with one dominant component matches — the paper's "mean value of the
/// probability distribution"; see EXPERIMENTS.md.)
struct PredictorVerification {
  double max_lateral_velocity = 0.0;  // max over components
  bool exact = false;                 // every component solved to optimality
  double seconds = 0.0;               // summed verification time
  long nodes = 0;
  std::size_t binaries = 0;           // of the largest component encoding
  std::vector<verify::MaximizeResult> per_component;
};

/// `region_override` (when non-null) replaces the default vehicle-on-left
/// region — e.g. one built over the observed data domain
/// (highway::data_domain_box), which is both more meaningful and far
/// cheaper to verify than the full encodable domain.
PredictorVerification verify_max_lateral_velocity(
    const TrainedPredictor& predictor, const highway::SceneEncoder& encoder,
    const verify::VerifierOptions& options,
    const verify::InputRegion* region_override = nullptr);

/// Table II final row: prove that no component mean lateral velocity can
/// exceed `threshold` (e.g. 3 m/s) on the vehicle-on-left region.
struct PredictorProof {
  verify::Verdict verdict = verify::Verdict::kUnknown;
  double seconds = 0.0;
  std::vector<verify::ProveResult> per_component;
};

PredictorProof prove_lateral_velocity_bound(
    const TrainedPredictor& predictor, const highway::SceneEncoder& encoder,
    double threshold, const verify::VerifierOptions& options,
    const verify::InputRegion* region_override = nullptr);

}  // namespace safenn::core
