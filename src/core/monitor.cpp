#include "core/monitor.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "highway/scene_encoder.hpp"

namespace safenn::core {

SafetyMonitor::SafetyMonitor(verify::InputRegion region,
                             double lateral_threshold)
    : region_(std::move(region)), lateral_threshold_(lateral_threshold) {
  require(region_.well_formed(),
          "SafetyMonitor: region constraint names an input outside the box");
}

GuardDecision SafetyMonitor::guard(const TrainedPredictor& predictor,
                                   const linalg::Vector& scene) const {
  return guard_action(scene, predictor.predict(scene).mean());
}

GuardDecision SafetyMonitor::guard_action(const linalg::Vector& scene,
                                          linalg::Vector action) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  GuardDecision decision;
  decision.action = std::move(action);
  if (!region_.contains(scene)) return decision;
  decision.assumption_hit = true;
  assumption_hits_.fetch_add(1, std::memory_order_relaxed);
  if (decision.action[highway::kActionLateral] > lateral_threshold_) {
    interventions_.fetch_add(1, std::memory_order_relaxed);
    decision.action[highway::kActionLateral] = lateral_threshold_;
    decision.intervened = true;
  }
  return decision;
}

std::vector<GuardDecision> SafetyMonitor::guard_batch(
    const TrainedPredictor& predictor,
    const std::vector<linalg::Vector>& scenes) const {
  std::vector<GuardDecision> decisions;
  decisions.reserve(scenes.size());
  if (scenes.empty()) return decisions;
  const std::vector<nn::GaussianMixture> mixtures =
      predictor.predict_batch(scenes);
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    decisions.push_back(guard_action(scenes[i], mixtures[i].mean()));
  }
  return decisions;
}

linalg::Vector SafetyMonitor::guarded_action(const TrainedPredictor& predictor,
                                             const linalg::Vector& scene) const {
  return guard(predictor, scene).action;
}

linalg::Vector SafetyMonitor::safe_action() const {
  linalg::Vector action(highway::kActionDims);
  action[highway::kActionLateral] = std::min(0.0, lateral_threshold_);
  action[highway::kActionAccel] = 0.0;
  return action;
}

MonitorStats SafetyMonitor::stats() const {
  MonitorStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.assumption_hits = assumption_hits_.load(std::memory_order_relaxed);
  s.interventions = interventions_.load(std::memory_order_relaxed);
  return s;
}

void SafetyMonitor::reset_stats() {
  queries_.store(0, std::memory_order_relaxed);
  assumption_hits_.store(0, std::memory_order_relaxed);
  interventions_.store(0, std::memory_order_relaxed);
}

}  // namespace safenn::core
