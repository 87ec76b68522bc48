// Atomic hot-swap slot for the model serving under live traffic.
//
// RCU-style publication: readers (serving workers) grab a shared_ptr to
// an immutable ModelSnapshot once per popped micro-batch and serve the
// whole batch against it; a swap atomically publishes a new snapshot for
// subsequent pops while in-flight batches finish on the snapshot they
// hold. Readers touch the slot only between batches (never mid-batch),
// no batch ever observes a half-swapped model, and the old model is
// destroyed exactly when its last in-flight batch releases it.
//
// Shield continuity across swaps lives one level up: the serving
// MetricsRegistry's outcome/intervention counters are global and
// monotone across any number of swaps (plus per-version, so each model's
// slice is separately auditable) — bench_multimodel_serve asserts the
// totals against a sequential per-version replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "linalg/kernels.hpp"
#include "nn/qengine.hpp"
#include "registry/artifact.hpp"

namespace safenn::registry {

/// An immutable (predictor, monitor, kernel backend) triple under a
/// version label — everything a worker needs to serve one micro-batch.
/// Materialized from a registry artifact, and owns everything it serves.
class ModelSnapshot {
 public:
  /// Materializes and owns the artifact's predictor and monitor. The
  /// caller chooses the backend (serve::admit_snapshot runs the admission
  /// gate per artifact and constructs the snapshot). With backend ==
  /// kQuantized, the artifact must carry a quantized payload; the packed
  /// engine is built once here (throwing nn::QuantizeError if the payload
  /// fails the packing admission analysis) and shared (it is immutable)
  /// by every batch served against this snapshot. `quantized_kernel` then
  /// picks the integer kernel inside the engine — kReference for the
  /// scalar reference, anything else for the SIMD dispatch; all bitwise
  /// equal.
  ModelSnapshot(const ModelArtifact& artifact, linalg::KernelBackend backend,
                linalg::KernelBackend quantized_kernel =
                    linalg::KernelBackend::kQuantized);

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  const std::string& version() const { return version_; }
  const core::TrainedPredictor& predictor() const { return predictor_; }
  const core::SafetyMonitor& monitor() const { return monitor_; }
  linalg::KernelBackend backend() const { return backend_; }
  /// Content hash of the artifact this snapshot was built from.
  std::uint64_t content_hash() const { return content_hash_; }
  /// Content address of the quantized weights; 0 when not quantized.
  std::uint64_t quantized_hash() const { return quantized_hash_; }
  /// The packed integer engine; non-null iff backend() == kQuantized.
  const nn::QuantizedEngine* quantized_engine() const {
    return quantized_engine_.get();
  }

 private:
  std::string version_;
  linalg::KernelBackend backend_;
  std::uint64_t content_hash_;
  std::uint64_t quantized_hash_ = 0;
  core::TrainedPredictor predictor_;
  core::SafetyMonitor monitor_;
  std::unique_ptr<const nn::QuantizedEngine> quantized_engine_;
};

/// The swap slot itself. `current()` copies the published shared_ptr
/// under a mutex held only for the refcount bump (readers pin once per
/// micro-batch, so the lock is off the per-request path); `swap()`
/// publishes a new snapshot and returns the previous one so the caller
/// can inspect what was retired.
///
/// Not std::atomic<std::shared_ptr>: libstdc++ 12's _Sp_atomic::load
/// drops its spinlock with a relaxed fetch_sub, so a subsequent locked
/// swap has no release edge ordering it after the reader's pointer
/// read — a real (if practically benign) memory-model race that TSan
/// reports. A plain mutex gives the same publication semantics and is
/// sanitizer-clean.
class LiveModel {
 public:
  explicit LiveModel(std::shared_ptr<const ModelSnapshot> initial);

  /// The snapshot new work should serve against.
  std::shared_ptr<const ModelSnapshot> current() const;

  /// Atomically publishes `next` and returns the retired snapshot.
  /// In-flight readers keep their shared_ptr; the retired model dies
  /// with its last reference.
  std::shared_ptr<const ModelSnapshot> swap(
      std::shared_ptr<const ModelSnapshot> next);

  /// Number of swap() calls since construction.
  std::uint64_t swap_count() const {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> slot_;
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace safenn::registry
