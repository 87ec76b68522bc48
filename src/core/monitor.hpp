// Runtime safety monitor (runtime assurance / simplex-architecture
// pattern).
//
// Offline verification (Sec. II(B)) proves properties over a region;
// a deployed system additionally guards the network at runtime: when the
// property's assumption holds for the current scene, the suggested action
// is checked against the guarantee and clamped to a safe fallback if it
// would violate it. Every intervention is counted — the intervention
// rate is itself certification evidence (a verified network should show
// zero interventions inside the verified region).
//
// The monitor is shared by every worker of the serving runtime
// (safenn::serve): `guard`/`guarded_action` are const and the counters
// are atomic, so one instance can shield concurrent inference without
// losing a single intervention.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/pipeline.hpp"
#include "verify/property.hpp"

namespace safenn::core {

struct MonitorStats {
  std::size_t queries = 0;
  std::size_t assumption_hits = 0;  // scenes inside the property region
  std::size_t interventions = 0;    // actions clamped

  double intervention_rate() const {
    return queries == 0
               ? 0.0
               : static_cast<double>(interventions) /
                     static_cast<double>(queries);
  }
};

/// One shielded prediction: the action actually returned plus what the
/// monitor decided about it.
struct GuardDecision {
  linalg::Vector action;
  bool assumption_hit = false;  // scene was inside the property region
  bool intervened = false;      // lateral component was clamped
};

/// Guards an MDN motion predictor with the lateral-velocity property:
/// when the scene satisfies the region (vehicle on the left) and the
/// suggested mean lateral velocity exceeds the threshold, the lateral
/// component is clamped to the threshold.
class SafetyMonitor {
 public:
  /// Throws safenn::Error unless region.well_formed().
  SafetyMonitor(verify::InputRegion region, double lateral_threshold);

  /// Shielded prediction with the monitor's full decision. Thread-safe:
  /// may be called concurrently on a shared monitor and predictor.
  GuardDecision guard(const TrainedPredictor& predictor,
                      const linalg::Vector& scene) const;

  /// Applies the shield to an action already predicted for `scene`
  /// (counters update exactly as in guard()). This is the per-row guard
  /// of the batched serving path: predictions may be computed as one
  /// batched forward, but every certification decision stays per scene.
  GuardDecision guard_action(const linalg::Vector& scene,
                             linalg::Vector action) const;

  /// Shielded batch prediction: one batched forward over all scenes,
  /// then the per-row guard in order — decision-for-decision and
  /// counter-for-counter identical to calling guard() per scene.
  std::vector<GuardDecision> guard_batch(
      const TrainedPredictor& predictor,
      const std::vector<linalg::Vector>& scenes) const;

  /// Returns the (possibly clamped) mean action for the scene.
  linalg::Vector guarded_action(const TrainedPredictor& predictor,
                                const linalg::Vector& scene) const;

  /// The no-inference fallback for deadline overruns: zero lateral
  /// velocity (stay in lane, trivially within any threshold >= 0,
  /// otherwise clamped to it) and zero longitudinal acceleration.
  linalg::Vector safe_action() const;

  double lateral_threshold() const { return lateral_threshold_; }
  const verify::InputRegion& region() const { return region_; }

  /// Consistent snapshot of the counters (each counter is exact; the
  /// triple is read non-atomically, so snapshot during quiescence for
  /// cross-counter invariants).
  MonitorStats stats() const;
  void reset_stats();

 private:
  verify::InputRegion region_;
  double lateral_threshold_;
  mutable std::atomic<std::size_t> queries_{0};
  mutable std::atomic<std::size_t> assumption_hits_{0};
  mutable std::atomic<std::size_t> interventions_{0};
};

}  // namespace safenn::core
