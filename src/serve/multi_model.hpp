// Serving runtime: N live models behind one admission budget. A single
// model is served as a one-entry fleet.
//
// Topology:
//
//   submit(model_id, scene)
//        |  route (frozen id -> slot map, no lock)
//        v
//   ModelTable ── Slot[alpha]: LiveModel + bounded RequestQueue
//              ── Slot[beta]:  LiveModel + bounded RequestQueue
//              ── shared: global depth counter + admission budget +
//                         WorkSignal
//        |
//        v
//   ShardedWorkerPool: worker w pins home shard (w % N) and drains it
//   first; when the home queue is empty it steals from the LONGEST
//   non-empty queue (ties -> lowest slot index); when every probe is
//   empty it parks on the shared WorkSignal.
//
// The load-bearing invariants:
//
//  * Micro-batches never mix models. A batch is always popped from ONE
//    slot's queue, and its snapshot is pinned for the whole batch, so
//    each model's intervention/assumption counters must equal a
//    sequential replay of exactly the scenes that model served. The pool
//    still counts a `mixed_batches` violation metric (asserted 0 by the
//    bench).
//
//  * One admission budget for the fleet. Queues are per model (a hot
//    model cannot starve a cold model's queue space), but admission —
//    the total number of requests enqueued across all models — is a
//    single global counter with a single watermark: shedding is a
//    statement about the fleet's total backlog, not about one model.
//
//  * Per-model hot swap, per-model backend re-gating. Each slot is its
//    own LiveModel: reload(model_id, artifact) re-runs admit_snapshot
//    (quantized payload + bitwise kernel harness) for the new artifact
//    and swaps only that slot; in-flight batches of every model
//    finish on the snapshot they pinned. Stop closes every queue, lets
//    the workers drain what is already enqueued (no request is ever
//    dropped with a broken promise), then joins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "registry/live_model.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/request_queue.hpp"

namespace safenn::serve {

struct WorkerPoolConfig {
  std::size_t workers = 4;
  std::size_t max_batch = 16;
};

/// What submit() does when the fleet backs up. Either way latency stays
/// bounded — the policies differ in what the client gets back.
enum class AdmissionPolicy {
  /// Accept until the admission budget or the model's queue is full,
  /// then kRejected (the caller gets no action and must handle the
  /// refusal).
  kRejectWhenFull,
  /// Shed load with a safe default: at the fleet-depth watermark the
  /// request is answered immediately with the routed model's
  /// SafetyMonitor::safe_action() as kDegraded — the client always
  /// receives an actionable (and provably safe) answer, overload never
  /// builds unbounded latency, and the shield guarantee is preserved
  /// because the fallback is the same one deadline overruns use.
  kDegradeAtWatermark,
};

const char* to_string(AdmissionPolicy policy);

/// Wakeup channel shared by every queue in a ModelTable: producers push
/// into a queue, consumers park here when every queue probe comes back
/// empty. Each push hands at most one wakeup to one parked worker, so
/// once every parked worker holds one, producers skip the mutex
/// entirely (the common case under load) and cannot starve the woken
/// workers of it; the queue mutex orders a parking worker's count
/// increment before any push its predicate missed, which makes the skip
/// safe.
class WorkSignal {
 public:
  /// Called by producers after pushing a request.
  void wake_one();
  /// Marks the signal closed and wakes every parked worker.
  void close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Parks until a producer hands this worker a wakeup or the signal
  /// closes, unless `pred()` — evaluated under the signal mutex after
  /// the worker counts itself parked — already holds.
  template <typename Pred>
  void wait(Pred pred) {
    std::unique_lock<std::mutex> lock(mu_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    if (pred()) {
      parked_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    cv_.wait(lock, [this] { return wakeups_ > 0 || closed(); });
    if (wakeups_ > 0) {
      --wakeups_;  // the producer already uncounted this worker
    } else {
      parked_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  // Workers parked without a wakeup. Mutated only under mu_; producers
  // read it lock-free (seq_cst).
  std::atomic<std::uint64_t> parked_{0};
  std::size_t wakeups_ = 0;  // handed out, not yet taken (under mu_)
  std::atomic<bool> closed_{false};
};

/// The table of live models plus the shared admission state. The slot
/// set is frozen at construction — lookups are lock-free — while each
/// slot's model hot-swaps independently through its LiveModel.
class ModelTable {
 public:
  struct Slot {
    Slot(std::string id, std::shared_ptr<const registry::ModelSnapshot> snap,
         std::size_t queue_capacity, ModelMetrics& slice)
        : model_id(std::move(id)),
          live(std::move(snap)),
          queue(queue_capacity),
          metrics(slice) {}

    const std::string model_id;
    registry::LiveModel live;
    RequestQueue queue;
    /// This model's metrics slice, resolved once when the slot is added.
    ModelMetrics& metrics;
  };

  /// `admission_budget` is the fleet-wide cap on enqueued requests.
  explicit ModelTable(std::size_t admission_budget);

  /// Adds a slot (construction phase only — before any traffic) and
  /// resolves its per-model slice in `metrics`.
  void add_slot(std::string model_id,
                std::shared_ptr<const registry::ModelSnapshot> snapshot,
                std::size_t queue_capacity, MetricsRegistry& metrics);

  Slot* find(const std::string& model_id);
  const Slot* find(const std::string& model_id) const;
  Slot& slot(std::size_t index) { return *slots_[index]; }
  std::size_t size() const { return slots_.size(); }
  std::vector<std::string> model_ids() const;

  /// Reserves one unit of the global admission budget; false when the
  /// fleet backlog is at the cap (the caller rejects).
  bool reserve();
  /// Unconditional reservation (blocking producers bypass the cap; their
  /// backpressure is the per-model queue capacity).
  void reserve_unchecked();
  /// Returns `n` units after a pop (or after a failed per-queue push).
  void release(std::size_t n);

  /// Fleet backlog as admission counts it: a request holds its unit
  /// from reserve() (before its push) to release() (after its pop).
  std::size_t depth() const {
    return depth_.load(std::memory_order_relaxed);
  }
  std::size_t budget() const { return budget_; }
  WorkSignal& signal() { return signal_; }

  /// True while some queue holds a request (takes each queue's lock).
  /// Idle workers park on this, not on depth(), which also counts
  /// requests between reserve() and their push.
  bool queued() const;
  /// Closes every queue and the signal (shutdown). Idempotent.
  void close_all();
  /// True once closed and every queue has been drained.
  bool drained() const { return signal_.closed() && !queued(); }

 private:
  const std::size_t budget_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::map<std::string, std::size_t> index_;  // frozen after construction
  std::atomic<std::uint64_t> depth_{0};
  WorkSignal signal_;
};

/// Work-stealing worker pool over a ModelTable: per popped batch it pins
/// the slot's snapshot, runs one batched forward with the per-row guard,
/// accounts every response (global, per version, per backend, per
/// model), and checks batch purity.
class ShardedWorkerPool {
 public:
  ShardedWorkerPool(ModelTable& table, MetricsRegistry& metrics,
                    WorkerPoolConfig config);
  ~ShardedWorkerPool();

  ShardedWorkerPool(const ShardedWorkerPool&) = delete;
  ShardedWorkerPool& operator=(const ShardedWorkerPool&) = delete;

  void start();
  /// Closes the table, drains every backlog, joins all workers.
  void stop();
  bool running() const { return !threads_.empty(); }
  std::size_t workers() const { return config_.workers; }

 private:
  void worker_loop(std::size_t worker_index);
  void process_batch(std::size_t slot_index,
                     std::vector<ServeRequest>& batch);

  ModelTable& table_;
  MetricsRegistry& metrics_;
  WorkerPoolConfig config_;
  std::vector<std::thread> threads_;
};

struct MultiModelConfig {
  /// Per-model queue bound (isolation: one model's backlog cannot evict
  /// another model's queue space).
  std::size_t queue_capacity = 256;
  /// Fleet-wide cap on enqueued requests, shared by all models.
  std::size_t admission_budget = 512;
  WorkerPoolConfig pool;
  /// Per-request service deadline from submit time; <= 0 means none.
  double deadline_seconds = 0.0;
  /// Requested arithmetic for the batched forward hot path: kReference
  /// (float) or kQuantized, gated per artifact by admit_snapshot at
  /// construction and on every reload.
  linalg::KernelBackend backend = linalg::KernelBackend::kReference;
  /// Overload behavior of submit(); see AdmissionPolicy.
  AdmissionPolicy admission = AdmissionPolicy::kRejectWhenFull;
  /// Fraction (clamped to (0, 1]) of the backlog the fleet can hold —
  /// the smaller of `admission_budget` and the summed queue capacities —
  /// at which kDegradeAtWatermark sheds; on the FLEET depth, not the
  /// model's.
  double queue_watermark = 0.75;
};

/// A model entry the server is constructed from: routing id + the
/// registry artifact it initially serves (hot-swappable per id later).
struct ModelEntry {
  std::string model_id;
  registry::ModelArtifact artifact;
};

/// The serving facade: owns table + pool + metrics. One model is a
/// one-entry fleet.
class MultiModelServer {
 public:
  /// Gates each artifact's backend and starts the workers immediately.
  /// Model ids must be unique and non-empty.
  MultiModelServer(const std::vector<ModelEntry>& models,
                   MultiModelConfig config);
  ~MultiModelServer();

  MultiModelServer(const MultiModelServer&) = delete;
  MultiModelServer& operator=(const MultiModelServer&) = delete;

  /// Admission-controlled submit. Unknown model id -> immediate
  /// kRejected; fleet depth at the watermark (kDegradeAtWatermark) ->
  /// immediate safe-action kDegraded answered with the ROUTED model's
  /// snapshot (shed counts against the fleet + the model's slice); fleet
  /// budget exhausted or the model's queue full -> kRejected. Never
  /// blocks.
  std::future<ServeResponse> submit(const std::string& model_id,
                                    linalg::Vector scene);

  /// Blocking submit: waits for space in the model's queue, bypassing
  /// watermark and global budget (replay producers want everything
  /// served). Rejects only for unknown ids or once stopped.
  std::future<ServeResponse> submit_blocking(const std::string& model_id,
                                             linalg::Vector scene);

  /// Hot-swaps ONE model under live traffic, re-running the backend
  /// admission gate for the new artifact. Returns the backend the slot
  /// now serves with. Throws safenn::Error on an unknown model id.
  linalg::KernelBackend reload(const std::string& model_id,
                               const registry::ModelArtifact& artifact);

  /// Stops accepting work, drains every backlog, joins. Idempotent.
  void stop();

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  std::size_t num_models() const { return table_.size(); }
  std::vector<std::string> model_ids() const { return table_.model_ids(); }
  /// Current fleet backlog (enqueued across all models).
  std::size_t depth() const { return table_.depth(); }
  /// Live version / backend of one model. Throws on unknown ids.
  std::string version(const std::string& model_id) const;
  linalg::KernelBackend backend(const std::string& model_id) const;

 private:
  /// Populates table_ from the model entries (called from the member
  /// initializer list, before the pool is constructed over the table).
  ModelTable& init_table(const std::vector<ModelEntry>& models);
  ServeRequest make_request(const std::string& model_id,
                            linalg::Vector&& scene);
  void fulfil_rejected(ServeRequest& request);
  void fulfil_shed(ModelTable::Slot& slot, ServeRequest& request);

  MultiModelConfig config_;
  MetricsRegistry metrics_;
  ModelTable table_;
  ShardedWorkerPool pool_;
  std::mutex reload_mu_;
  std::size_t watermark_depth_ = 0;
  std::atomic<std::uint64_t> next_id_{0};
};

}  // namespace safenn::serve
