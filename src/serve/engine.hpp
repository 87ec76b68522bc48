// Shielded inference engine: every prediction flows through the
// SafetyMonitor; deadline overruns degrade to the monitor's safe
// fallback without touching the network.
//
// Degradation policy (documented in DESIGN.md "Serving runtime"):
//   deadline already passed at service time  -> kDegraded (safe_action)
//   shield clamps the predicted action       -> kClamped
//   otherwise                                -> kServed
// Rejection (queue full / runtime stopped) happens upstream at the
// submit path and never reaches the engine.
//
// The engine is a stateless view over one model snapshot: under hot
// reload, workers construct a fresh engine per popped micro-batch from
// LiveModel::current(), so an in-flight batch finishes on the snapshot
// it started with while the next pop sees the swapped-in model.
#pragma once

#include <memory>

#include "linalg/kernels.hpp"
#include "registry/live_model.hpp"
#include "serve/request_queue.hpp"

namespace safenn::serve {

/// The admission gate: materializes `artifact` as a snapshot whose
/// backend is what this host may actually serve with. Re-run on every
/// hot reload — admission is per artifact, not per process.
///   kReference, the one float arithmetic, passes through.
///   kQuantized needs a quantized payload that passes the packing
///     admission analysis (int16 weights / int32 activations / int64
///     accumulator bounds over the declared input domain); the engine is
///     packed once, inside the snapshot. Its integer kernel is the SIMD
///     dispatch only if those kernels are BITWISE equal to the scalar
///     reference on this host with the engine's own shapes pinned —
///     integer kernels carry no tolerance — and the scalar reference
///     otherwise (exact semantics preserved). A missing or unpackable
///     payload falls back to float kReference with a warning.
/// The verdict is read off the result: backend(), and for kQuantized
/// also quantized_engine()->kernel_backend().
std::shared_ptr<const registry::ModelSnapshot> admit_snapshot(
    const registry::ModelArtifact& artifact, linalg::KernelBackend requested,
    std::size_t max_batch);

/// Stateless per-call engine: a view over one model snapshot, whose
/// thread-safe monitor shields every prediction; safe to use from any
/// number of workers. Cheap to construct — workers build one per
/// micro-batch from the live snapshot. The snapshot must outlive the
/// engine (the worker holds its shared_ptr for the batch's duration).
/// Batched forwards run the snapshot's backend; single-request serve()
/// runs the per-sample reference path for float backends.
class ShieldedEngine {
 public:
  explicit ShieldedEngine(const registry::ModelSnapshot& snapshot)
      : snapshot_(snapshot) {}

  /// Serves one request at time `now`: deadline check, then guarded
  /// prediction. Fills everything except `queue_seconds` (the caller
  /// knows the dequeue time).
  ServeResponse serve(const ServeRequest& request,
                      Clock::time_point now) const;

  /// Serves a whole popped micro-batch at time `now`. Expired requests
  /// degrade exactly as in serve() and never touch the predictor; the
  /// live scenes run through the network as ONE batched forward, then
  /// the monitor's per-row guard is applied in queue order — responses
  /// (and monitor counters) are decision-for-decision identical to
  /// calling serve() per request. `infer_seconds` of each predicted
  /// response is the batch inference+guard time divided evenly over the
  /// predicted rows.
  std::vector<ServeResponse> serve_batch(
      const std::vector<ServeRequest>& requests, Clock::time_point now) const;

 private:
  /// Mixture means for the packed scene rows, through whichever
  /// arithmetic the snapshot serves (float predict_batch or the exact
  /// integer engine); fills `means` with one action mean per row.
  void predict_means(const linalg::Matrix& scenes,
                     std::vector<linalg::Vector>& means) const;

  const registry::ModelSnapshot& snapshot_;
};

}  // namespace safenn::serve
