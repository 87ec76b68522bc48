#include "registry/live_model.hpp"

#include "common/error.hpp"

namespace safenn::registry {

ModelSnapshot::ModelSnapshot(const ModelArtifact& artifact,
                             linalg::KernelBackend backend,
                             linalg::KernelBackend quantized_kernel)
    : version_(artifact.version),
      backend_(backend),
      content_hash_(artifact.content_hash),
      predictor_(artifact.predictor()),
      monitor_(artifact.monitor.region, artifact.monitor.lateral_threshold) {
  require(!version_.empty(), "ModelSnapshot: artifact has no version");
  if (backend_ == linalg::KernelBackend::kQuantized) {
    require(artifact.quantized.has_value(),
            "ModelSnapshot: kQuantized backend requires an artifact with a "
            "quantized payload");
    quantized_hash_ = artifact.quantized->content_hash;
    quantized_engine_ = std::make_unique<const nn::QuantizedEngine>(
        artifact.quantized->network, artifact.quantized->input_limit,
        quantized_kernel);
  }
}

LiveModel::LiveModel(std::shared_ptr<const ModelSnapshot> initial)
    : slot_(std::move(initial)) {
  require(slot_ != nullptr, "LiveModel: null initial snapshot");
}

std::shared_ptr<const ModelSnapshot> LiveModel::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slot_;
}

std::shared_ptr<const ModelSnapshot> LiveModel::swap(
    std::shared_ptr<const ModelSnapshot> next) {
  require(next != nullptr, "LiveModel::swap: null snapshot");
  std::shared_ptr<const ModelSnapshot> previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    previous = std::move(slot_);
    slot_ = std::move(next);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return previous;
}

}  // namespace safenn::registry
