// Bounded MPMC request queue for the serving runtime.
//
// Producers (client threads) push encoded scenes; consumer workers drain
// the queue in micro-batches. The queue is the serving runtime's
// load-shedding point: `try_push` fails fast when the queue is full so
// the caller can reject with bounded latency instead of queueing
// unboundedly (the paper's certification argument needs the guard to
// answer within a deadline, not eventually).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/vector.hpp"

namespace safenn::serve {

using Clock = std::chrono::steady_clock;

/// What happened to a request, per the degradation policy:
///   kServed   — predicted, shield checked, no clamp needed
///   kClamped  — predicted, shield intervened (action clamped)
///   kDegraded — deadline passed before inference; safe fallback returned
///   kRejected — queue full or runtime stopped; never entered the engine
enum class ServeOutcome { kServed, kClamped, kDegraded, kRejected };

const char* to_string(ServeOutcome outcome);

struct ServeResponse {
  std::uint64_t id = 0;
  /// Which model the request was routed to (echoed from the request).
  std::string model_id;
  ServeOutcome outcome = ServeOutcome::kRejected;
  linalg::Vector action;        // empty for kRejected
  bool assumption_hit = false;  // scene inside the monitored region
  bool intervened = false;      // shield clamped the action
  /// Version label of the model snapshot that produced this response —
  /// the per-response traceability link that survives hot swaps. Empty
  /// only for kRejected (no model was involved).
  std::string model_version;
  /// The arithmetic that produced this response: the serving backend of
  /// the snapshot that answered (kQuantized = exact fixed point, the
  /// semantics the SMT stack verifies). Degraded responses carry the
  /// snapshot's backend too even though the fallback involves no network
  /// arithmetic; kRejected keeps the default (no model was involved).
  linalg::KernelBackend backend = linalg::KernelBackend::kReference;
  double queue_seconds = 0.0;   // enqueue -> dequeue
  double infer_seconds = 0.0;   // engine time (0 for degraded/rejected)
};

struct ServeRequest {
  std::uint64_t id = 0;
  /// Routing key: the model this request is served by. A popped
  /// micro-batch is always model-pure: requests with different ids never
  /// share a queue, so they never share a batch.
  std::string model_id;
  linalg::Vector scene;
  Clock::time_point enqueue_time{};
  Clock::time_point deadline = Clock::time_point::max();  // max() = none
  std::promise<ServeResponse> promise;
};

/// Bounded multi-producer multi-consumer FIFO. All operations are
/// thread-safe; `close()` wakes every blocked producer and lets
/// consumers drain what remains.
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Non-blocking push; false when the queue is full or closed (the
  /// caller owns the request again and should reject it).
  bool try_push(ServeRequest&& request);

  /// Blocking push: waits for space. False only when the queue is (or
  /// becomes) closed.
  bool push(ServeRequest&& request);

  /// Moves up to `max_batch` requests into `out` (appended) under one
  /// lock acquisition and returns immediately — opportunistic
  /// micro-batching; 0 means the queue is currently empty (closed or
  /// not). Consumers never block here: the sharded worker pool probes its
  /// home queue, then steal candidates, and parks on the shared work
  /// signal only once every probe comes back empty.
  std::size_t try_pop_batch(std::vector<ServeRequest>& out,
                            std::size_t max_batch);

  /// Closes the queue: pushes fail from now on, consumers drain the
  /// remainder. Idempotent.
  void close();

  bool closed() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::deque<ServeRequest> items_;
  // Blocked-producer count (guarded by mu_): a pop touches the condition
  // variable only when a producer is actually blocked on it, so the
  // uncontended fast path is push/pop under one short lock with zero
  // futex syscalls (BM_RequestQueue in bench_micro.cpp measures this).
  std::size_t waiting_pushers_ = 0;
  bool closed_ = false;
};

}  // namespace safenn::serve
