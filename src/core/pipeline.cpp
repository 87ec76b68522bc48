#include "core/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace safenn::core {

nn::GaussianMixture TrainedPredictor::predict(
    const linalg::Vector& scene) const {
  return head.parse(network.forward(scene));
}

std::vector<nn::GaussianMixture> TrainedPredictor::predict_batch(
    const linalg::Matrix& scenes) const {
  const linalg::Matrix raw = network.forward_batch(scenes);
  std::vector<nn::GaussianMixture> out;
  out.reserve(raw.rows());
  linalg::Vector row(raw.cols());
  for (std::size_t r = 0; r < raw.rows(); ++r) {
    std::copy(raw.data() + r * raw.cols(), raw.data() + (r + 1) * raw.cols(),
              row.data());
    out.push_back(head.parse(row));
  }
  return out;
}

std::vector<nn::GaussianMixture> TrainedPredictor::predict_batch(
    const std::vector<linalg::Vector>& scenes) const {
  return predict_batch(pack_scenes(scenes));
}

linalg::Matrix pack_scenes(const std::vector<linalg::Vector>& scenes) {
  require(!scenes.empty(), "pack_scenes: empty scene batch");
  linalg::Matrix packed(scenes.size(), scenes.front().size());
  for (std::size_t r = 0; r < scenes.size(); ++r) {
    const linalg::Vector& s = scenes[r];
    require(s.size() == packed.cols(), "pack_scenes: ragged scene widths");
    std::copy(s.data(), s.data() + s.size(), packed.data() + r * packed.cols());
  }
  return packed;
}

TrainedPredictor train_motion_predictor(const data::Dataset& data,
                                        const PredictorConfig& config) {
  require(!data.empty(), "train_motion_predictor: empty dataset");
  require(data.input_dim() == highway::kSceneFeatures,
          "train_motion_predictor: expected 84-dim scenes");
  require(data.target_dim() == highway::kActionDims,
          "train_motion_predictor: expected 2-dim actions");

  TrainedPredictor out;
  out.head = nn::MdnHead(config.mixture_components, highway::kActionDims);
  Rng rng(config.weight_seed);
  out.network = nn::Network::make_i4xn(
      highway::kSceneFeatures, config.hidden_width,
      out.head.raw_output_size(), nn::Activation::kRelu, rng);

  // Spread the lateral-velocity component means at initialization so the
  // mixture does not collapse onto the keep-lane mode (standard MDN
  // anti-mode-collapse initialization): components anchor near
  // right-change / keep / left-change lateral velocities.
  {
    nn::DenseLayer& head_layer =
        out.network.layer(out.network.num_layers() - 1);
    const std::size_t k_count = out.head.components();
    for (std::size_t k = 0; k < k_count; ++k) {
      const double anchor =
          k_count == 1 ? 0.0
                       : -1.75 + 3.5 * static_cast<double>(k) /
                                    static_cast<double>(k_count - 1);
      head_layer.biases()[out.head.mean_index(k, highway::kActionLateral)] =
          anchor;
    }
  }

  nn::MdnLoss loss(out.head);
  nn::Trainer trainer(config.train);
  out.final_loss =
      trainer.train(out.network, loss, data.inputs(), data.targets());
  return out;
}

PredictorVerification verify_max_lateral_velocity(
    const TrainedPredictor& predictor, const highway::SceneEncoder& encoder,
    const verify::VerifierOptions& options,
    const verify::InputRegion* region_override) {
  PredictorVerification result;
  result.exact = true;
  const verify::InputRegion region =
      region_override ? *region_override
                      : highway::make_vehicle_on_left_region(encoder);
  verify::MilpVerifier verifier(options);

  bool first = true;
  for (std::size_t k = 0; k < predictor.head.components(); ++k) {
    verify::OutputExpr expr;
    expr.terms = {{static_cast<int>(predictor.head.mean_index(
                       k, highway::kActionLateral)),
                   1.0}};
    const verify::MaximizeResult r =
        verifier.maximize(predictor.network, region, expr);
    result.seconds += r.seconds;
    result.nodes += r.nodes;
    result.binaries = std::max(result.binaries, r.binaries);
    if (r.status != milp::MilpStatus::kOptimal) result.exact = false;
    if (r.has_value &&
        (first || r.max_value > result.max_lateral_velocity)) {
      result.max_lateral_velocity = r.max_value;
      first = false;
    }
    result.per_component.push_back(r);
  }
  return result;
}

PredictorProof prove_lateral_velocity_bound(
    const TrainedPredictor& predictor, const highway::SceneEncoder& encoder,
    double threshold, const verify::VerifierOptions& options,
    const verify::InputRegion* region_override) {
  PredictorProof proof;
  verify::MilpVerifier verifier(options);
  proof.verdict = verify::Verdict::kProved;
  for (std::size_t k = 0; k < predictor.head.components(); ++k) {
    verify::SafetyProperty prop =
        highway::component_lateral_velocity_property(encoder, predictor.head,
                                                     k, threshold);
    if (region_override) prop.region = *region_override;
    const verify::ProveResult r = verifier.prove(predictor.network, prop);
    proof.seconds += r.seconds;
    if (r.verdict == verify::Verdict::kViolated) {
      proof.verdict = verify::Verdict::kViolated;
    } else if (r.verdict == verify::Verdict::kUnknown &&
               proof.verdict == verify::Verdict::kProved) {
      proof.verdict = verify::Verdict::kUnknown;
    }
    proof.per_component.push_back(r);
  }
  return proof;
}

}  // namespace safenn::core
