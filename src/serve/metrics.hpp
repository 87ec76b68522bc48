// Serving metrics: lock-free latency histograms, outcome counters,
// shield-intervention accounting, queue-depth high-water mark — dumpable
// as JSON.
//
// The intervention counters here are certification evidence (Sec. II(B)):
// the registry's totals must match a sequential replay of the same scene
// set exactly, which is what tests/test_serve.cpp asserts.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

namespace safenn::serve {

/// Lock-free power-of-two-bucketed histogram over nanosecond latencies.
/// Bucket i counts samples in (2^(i-1), 2^i] ns; percentiles are reported
/// as the upper bound of the covering bucket (a sound over-approximation,
/// ~2x resolution — adequate for p50/p95/p99 tail reporting).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 42;  // up to ~73 minutes

  void record(std::uint64_t ns);

  std::uint64_t count() const;
  double mean_ns() const;
  /// Upper bound of the bucket containing the p-quantile (p in [0,1]);
  /// 0 when empty.
  double percentile_ns(double p) const;

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Per-model-version outcome slice: under hot reload the global counters
/// keep running across swaps (shield continuity), while each version's
/// own slice stays separately auditable — a sequential replay of the
/// scenes a version served must reproduce its counters exactly.
struct VersionCounters {
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> clamped{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> assumption_hits{0};
  std::atomic<std::uint64_t> interventions{0};

  std::uint64_t completed() const;
};

/// Per-model metric slice: the same outcome / shield counters as a
/// version slice, plus what routing adds — sheds charged to requests
/// routed at this model, micro-batches formed from its queue, its
/// queue-depth high-water mark, and its own end-to-end latency histogram
/// (p50/p95/p99 per model id in the JSON dump). Same contracts as
/// VersionCounters: stable addresses for the registry's lifetime, zeroed
/// in place by reset().
struct ModelMetrics {
  VersionCounters counters;
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> queue_depth_peak{0};
  LatencyHistogram total_latency;

  /// Monotone max update of this model's queue-depth high-water mark.
  void note_queue_depth(std::size_t depth);
};

/// All counters a serving run exposes. Every member is individually
/// thread-safe; the registry is shared by reference between the worker
/// pool, the submit path, and the reporter.
class MetricsRegistry {
 public:
  // Per-stage latencies.
  LatencyHistogram queue_latency;  // enqueue -> dequeue
  LatencyHistogram infer_latency;  // engine time per request
  LatencyHistogram total_latency;  // enqueue -> response

  // Outcome counters (submitted = sum of the four outcomes once drained).
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> clamped{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> rejected{0};

  // Shield accounting (mirrors core::MonitorStats over the served flow).
  std::atomic<std::uint64_t> assumption_hits{0};
  std::atomic<std::uint64_t> interventions{0};

  // Micro-batch formation. `mixed_batches` counts popped micro-batches
  // containing requests for more than one model id — the multi-model
  // purity invariant; it must stay 0 (bench_multimodel_serve exits
  // nonzero otherwise, because a mixed batch would break per-model
  // bitwise replay).
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batch_items{0};
  std::atomic<std::uint64_t> mixed_batches{0};

  std::atomic<std::uint64_t> queue_depth_peak{0};

  // Admission control + model lifecycle observability: `shed` counts
  // requests answered with the safe default at the queue-depth watermark
  // (a subset of `degraded`); `reloads` counts hot swaps.
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> reloads{0};

  /// Monotone max update of the queue-depth high-water mark.
  void note_queue_depth(std::size_t depth);

  /// The per-version counter slice for `version`, created on first use.
  /// The returned reference stays valid for the registry's lifetime
  /// (reset() clears counts but keeps the slices); lookup takes a mutex,
  /// so callers on the hot path should resolve once per batch.
  VersionCounters& version_counters(const std::string& version);

  /// The per-backend counter slice (keyed by linalg::to_string of the
  /// serving backend — "reference", "simd", "quantized"), same lifetime
  /// and locking contract as version_counters(). Under a float->quantized
  /// hot swap the per-backend slices say exactly how many decisions each
  /// arithmetic produced.
  VersionCounters& backend_counters(const std::string& backend);

  /// The per-model metric slice (keyed by routing model id), same
  /// lifetime and locking contract as version_counters(). The server's
  /// model table resolves each model's slice once, when the model is
  /// added.
  ModelMetrics& model_metrics(const std::string& model_id);

  /// Requests that received a response through the engine path.
  std::uint64_t completed() const;

  double mean_batch_size() const;

  /// JSON object with all counters and p50/p95/p99 per stage (in
  /// milliseconds). When `elapsed_seconds` > 0, includes throughput.
  std::string to_json(double elapsed_seconds = 0.0) const;

  void reset();

 private:
  /// The three slice families share one table. Keys order by family
  /// first, in the order the JSON dump writes its sections.
  enum class SliceKind { kVersion, kBackend, kModel };
  ModelMetrics& slice(SliceKind kind, const std::string& label);

  mutable std::mutex slices_mu_;
  // unique_ptr values keep slice addresses stable across map growth.
  std::map<std::pair<SliceKind, std::string>, std::unique_ptr<ModelMetrics>>
      slices_;
};

}  // namespace safenn::serve
