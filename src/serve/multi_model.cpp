#include "serve/multi_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"

namespace safenn::serve {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

std::uint64_t to_ns(double seconds) {
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e9);
}

std::uint64_t ns_between(Clock::time_point start, Clock::time_point end) {
  if (end <= start) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

std::size_t watermark_depth(std::size_t budget, double fraction) {
  const double f = std::clamp(fraction, 0.0, 1.0);
  const auto depth =
      static_cast<std::size_t>(std::floor(f * static_cast<double>(budget)));
  return std::max<std::size_t>(1, depth);
}

/// Bumps one counter slice (the global registry, or a version, backend
/// or model slice) for one answered request. Rejections never reach a
/// slice: they are counted where they happen, at submit.
template <typename Slice>
void count(Slice& slice, const ServeResponse& response) {
  switch (response.outcome) {
    case ServeOutcome::kServed: slice.served.fetch_add(1, kRelaxed); break;
    case ServeOutcome::kClamped: slice.clamped.fetch_add(1, kRelaxed); break;
    case ServeOutcome::kDegraded: slice.degraded.fetch_add(1, kRelaxed); break;
    case ServeOutcome::kRejected: break;
  }
  if (response.assumption_hit) slice.assumption_hits.fetch_add(1, kRelaxed);
  if (response.intervened) slice.interventions.fetch_add(1, kRelaxed);
}

/// Per-response accounting on the worker path: fills
/// `response.queue_seconds`, counts the response in the global, version,
/// backend and model slices, and records the latency histograms. The
/// caller resolves the slices once per micro-batch and still owns
/// fulfilling the request's promise afterwards.
void account_response(MetricsRegistry& metrics, VersionCounters& version,
                      VersionCounters& arith, ModelMetrics& model,
                      const ServeRequest& request, ServeResponse& response,
                      Clock::time_point dequeue_time) {
  const std::uint64_t queue_ns =
      ns_between(request.enqueue_time, dequeue_time);
  response.queue_seconds = static_cast<double>(queue_ns) / 1e9;
  count(metrics, response);
  count(version, response);
  count(arith, response);
  count(model.counters, response);
  metrics.queue_latency.record(queue_ns);
  metrics.infer_latency.record(to_ns(response.infer_seconds));
  const std::uint64_t total_ns =
      ns_between(request.enqueue_time, Clock::now());
  metrics.total_latency.record(total_ns);
  model.total_latency.record(total_ns);
}

/// The slot serving `model_id` in `table` (const or not); throws
/// safenn::Error naming `caller` on an unknown id.
template <typename Table>
auto& known_slot(Table& table, const std::string& model_id,
                 const char* caller) {
  auto* slot = table.find(model_id);
  if (slot == nullptr) {
    throw Error(std::string("MultiModelServer::") + caller +
                ": unknown model id '" + model_id + "'");
  }
  return *slot;
}

}  // namespace

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kRejectWhenFull: return "reject-when-full";
    case AdmissionPolicy::kDegradeAtWatermark: return "degrade-at-watermark";
  }
  return "?";
}

// ---------------------------------------------------------------- signal

void WorkSignal::wake_one() {
  // The caller already pushed its request under the queue's mutex. A
  // worker that parks counts itself (under mu_) and then reads the
  // queues under their mutexes: either that read follows our push and
  // sees the request, or it precedes it, and the queue mutex hands the
  // count to this read — we see it and wake the worker. Either way no
  // wakeup is lost.
  if (parked_.load(std::memory_order_seq_cst) == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (parked_.load(std::memory_order_relaxed) == 0) return;
  parked_.fetch_sub(1, std::memory_order_relaxed);
  ++wakeups_;
  cv_.notify_one();
}

void WorkSignal::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

// ----------------------------------------------------------------- table

ModelTable::ModelTable(std::size_t admission_budget)
    : budget_(std::max<std::size_t>(1, admission_budget)) {}

void ModelTable::add_slot(
    std::string model_id,
    std::shared_ptr<const registry::ModelSnapshot> snapshot,
    std::size_t queue_capacity, MetricsRegistry& metrics) {
  require(!model_id.empty(), "ModelTable: empty model id");
  require(index_.find(model_id) == index_.end(),
          "ModelTable: duplicate model id '" + model_id + "'");
  index_[model_id] = slots_.size();
  ModelMetrics& slice = metrics.model_metrics(model_id);
  slots_.push_back(std::make_unique<Slot>(
      std::move(model_id), std::move(snapshot), queue_capacity, slice));
}

ModelTable::Slot* ModelTable::find(const std::string& model_id) {
  const auto it = index_.find(model_id);
  return it == index_.end() ? nullptr : slots_[it->second].get();
}

const ModelTable::Slot* ModelTable::find(const std::string& model_id) const {
  const auto it = index_.find(model_id);
  return it == index_.end() ? nullptr : slots_[it->second].get();
}

std::vector<std::string> ModelTable::model_ids() const {
  std::vector<std::string> ids;
  ids.reserve(slots_.size());
  for (const auto& slot : slots_) ids.push_back(slot->model_id);
  return ids;
}

bool ModelTable::reserve() {
  const std::uint64_t before = depth_.fetch_add(1, kRelaxed);
  if (before >= budget_) {
    depth_.fetch_sub(1, kRelaxed);
    return false;
  }
  return true;
}

void ModelTable::reserve_unchecked() { depth_.fetch_add(1, kRelaxed); }

void ModelTable::release(std::size_t n) { depth_.fetch_sub(n, kRelaxed); }

void ModelTable::close_all() {
  for (auto& slot : slots_) slot->queue.close();
  signal_.close();
}

bool ModelTable::queued() const {
  for (const auto& slot : slots_) {
    if (slot->queue.size() > 0) return true;
  }
  return false;
}

// ------------------------------------------------------------------ pool

ShardedWorkerPool::ShardedWorkerPool(ModelTable& table,
                                     MetricsRegistry& metrics,
                                     WorkerPoolConfig config)
    : table_(table), metrics_(metrics), config_(config) {
  require(table_.size() > 0, "ShardedWorkerPool: empty model table");
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_batch == 0) config_.max_batch = 1;
}

ShardedWorkerPool::~ShardedWorkerPool() { stop(); }

void ShardedWorkerPool::start() {
  if (running()) return;
  threads_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
  log_debug("serve: started ", config_.workers, " sharded workers over ",
            table_.size(), " models (max batch ", config_.max_batch, ")");
}

void ShardedWorkerPool::stop() {
  if (!running()) return;
  table_.close_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  log_debug("serve: sharded pool stopped after ", metrics_.completed(),
            " completed requests");
}

void ShardedWorkerPool::process_batch(std::size_t slot_index,
                                      std::vector<ServeRequest>& batch) {
  ModelTable::Slot& slot = table_.slot(slot_index);
  metrics_.batches.fetch_add(1, kRelaxed);
  metrics_.batch_items.fetch_add(batch.size(), kRelaxed);
  const Clock::time_point dequeue_time = Clock::now();
  // Pin this slot's snapshot for the whole batch — a concurrent
  // reload(model_id) affects the slot's NEXT pop, never this batch.
  const std::shared_ptr<const registry::ModelSnapshot> snapshot =
      slot.live.current();
  const ShieldedEngine engine(*snapshot);
  VersionCounters& version = metrics_.version_counters(snapshot->version());
  VersionCounters& arith =
      metrics_.backend_counters(linalg::to_string(snapshot->backend()));
  slot.metrics.batches.fetch_add(1, kRelaxed);
  // Batch-purity invariant: every request in a popped micro-batch was
  // routed to this slot. A violation would silently break per-model
  // replay, so it is counted (and asserted 0 by bench_multimodel_serve)
  // rather than assumed.
  for (const ServeRequest& request : batch) {
    if (request.model_id != slot.model_id) {
      metrics_.mixed_batches.fetch_add(1, kRelaxed);
      log_warn("serve: MIXED micro-batch — request for model '",
                request.model_id, "' popped from queue of '", slot.model_id,
                "'");
      break;
    }
  }
  std::vector<ServeResponse> responses =
      engine.serve_batch(batch, dequeue_time);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    account_response(metrics_, version, arith, slot.metrics, batch[i],
                     responses[i], dequeue_time);
    batch[i].promise.set_value(std::move(responses[i]));
  }
}

void ShardedWorkerPool::worker_loop(std::size_t worker_index) {
  const std::size_t num_slots = table_.size();
  const std::size_t home = worker_index % num_slots;
  std::vector<ServeRequest> batch;
  batch.reserve(config_.max_batch);
  for (;;) {
    batch.clear();
    // Home shard first: under balanced load each worker drains its own
    // model's queue and batches stay warm per model.
    std::size_t slot_index = home;
    std::size_t n =
        table_.slot(home).queue.try_pop_batch(batch, config_.max_batch);
    if (n == 0 && num_slots > 1) {
      // Idle: steal from the longest non-empty queue (ties -> lowest
      // index). Stealing moves the whole micro-batch from ONE queue, so
      // batch purity survives work stealing.
      std::size_t best = num_slots;
      std::size_t best_depth = 0;
      for (std::size_t i = 0; i < num_slots; ++i) {
        if (i == home) continue;
        const std::size_t d = table_.slot(i).queue.size();
        if (d > best_depth) {
          best = i;
          best_depth = d;
        }
      }
      if (best < num_slots) {
        n = table_.slot(best).queue.try_pop_batch(batch, config_.max_batch);
        slot_index = best;
      }
    }
    if (n == 0) {
      if (table_.drained()) return;
      table_.signal().wait(
          [this] { return table_.signal().closed() || table_.queued(); });
      continue;
    }
    // The budget units free as soon as the batch leaves its queue: the
    // budget bounds the fleet BACKLOG, in-flight work is bounded by the
    // worker count.
    table_.release(n);
    process_batch(slot_index, batch);
  }
}

// ---------------------------------------------------------------- server

ModelTable& MultiModelServer::init_table(
    const std::vector<ModelEntry>& models) {
  require(!models.empty(), "MultiModelServer: at least one model required");
  for (const ModelEntry& entry : models) {
    table_.add_slot(entry.model_id,
                    admit_snapshot(entry.artifact, config_.backend,
                                   config_.pool.max_batch),
                    config_.queue_capacity, metrics_);
  }
  return table_;
}

MultiModelServer::MultiModelServer(const std::vector<ModelEntry>& models,
                                   MultiModelConfig config)
    : config_(config),
      table_(config.admission_budget),
      pool_(init_table(models), metrics_, config.pool),
      // The watermark is a fraction of the backlog that can actually
      // form (every slot's queue has the same capacity); over the budget
      // alone, a fleet whose queues hold less would reject before it
      // ever shed.
      watermark_depth_(watermark_depth(
          std::min(table_.budget(),
                   table_.size() * table_.slot(0).queue.capacity()),
          config.queue_watermark)) {
  pool_.start();
}

MultiModelServer::~MultiModelServer() { stop(); }

ServeRequest MultiModelServer::make_request(const std::string& model_id,
                                            linalg::Vector&& scene) {
  ServeRequest request;
  request.id = next_id_.fetch_add(1, kRelaxed);
  request.model_id = model_id;
  request.scene = std::move(scene);
  request.enqueue_time = Clock::now();
  if (config_.deadline_seconds > 0.0) {
    request.deadline =
        request.enqueue_time +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(config_.deadline_seconds));
  }
  return request;
}

std::future<ServeResponse> MultiModelServer::submit(
    const std::string& model_id, linalg::Vector scene) {
  metrics_.submitted.fetch_add(1, kRelaxed);
  ServeRequest request = make_request(model_id, std::move(scene));
  std::future<ServeResponse> future = request.promise.get_future();
  ModelTable::Slot* slot = table_.find(model_id);
  if (slot == nullptr) {
    fulfil_rejected(request);
    return future;
  }
  if (config_.admission == AdmissionPolicy::kDegradeAtWatermark &&
      !slot->queue.closed() && table_.depth() >= watermark_depth_) {
    // Fleet-level shed: the trigger is the TOTAL backlog across all
    // models, the answer is the routed model's own safe action.
    fulfil_shed(*slot, request);
    return future;
  }
  if (!table_.reserve()) {
    fulfil_rejected(request);
    return future;
  }
  if (!slot->queue.try_push(std::move(request))) {
    table_.release(1);
    fulfil_rejected(request);
    return future;
  }
  table_.signal().wake_one();
  metrics_.note_queue_depth(table_.depth());
  slot->metrics.note_queue_depth(slot->queue.size());
  return future;
}

std::future<ServeResponse> MultiModelServer::submit_blocking(
    const std::string& model_id, linalg::Vector scene) {
  metrics_.submitted.fetch_add(1, kRelaxed);
  ServeRequest request = make_request(model_id, std::move(scene));
  std::future<ServeResponse> future = request.promise.get_future();
  ModelTable::Slot* slot = table_.find(model_id);
  if (slot == nullptr) {
    fulfil_rejected(request);
    return future;
  }
  table_.reserve_unchecked();
  if (!slot->queue.push(std::move(request))) {
    table_.release(1);
    fulfil_rejected(request);
    return future;
  }
  table_.signal().wake_one();
  metrics_.note_queue_depth(table_.depth());
  slot->metrics.note_queue_depth(slot->queue.size());
  return future;
}

linalg::KernelBackend MultiModelServer::reload(
    const std::string& model_id, const registry::ModelArtifact& artifact) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  ModelTable::Slot& slot = known_slot(table_, model_id, "reload");
  // Per-artifact re-gating: kQuantized's payload and bitwise kernel gate
  // never survive a swap.
  std::shared_ptr<const registry::ModelSnapshot> next =
      admit_snapshot(artifact, config_.backend, config_.pool.max_batch);
  const linalg::KernelBackend backend = next->backend();
  std::shared_ptr<const registry::ModelSnapshot> previous =
      slot.live.swap(std::move(next));
  metrics_.reloads.fetch_add(1, kRelaxed);
  log_info("serve: hot-swapped model '", model_id, "' ",
           previous->version(), " -> ", artifact.version, " (backend ",
           linalg::to_string(backend), ", hash ", artifact.content_hash,
           "); other slots untouched");
  return backend;
}

void MultiModelServer::fulfil_rejected(ServeRequest& request) {
  metrics_.rejected.fetch_add(1, kRelaxed);
  ServeResponse response;
  response.id = request.id;
  response.model_id = request.model_id;
  response.outcome = ServeOutcome::kRejected;
  request.promise.set_value(std::move(response));
}

void MultiModelServer::fulfil_shed(ModelTable::Slot& slot,
                                   ServeRequest& request) {
  const std::shared_ptr<const registry::ModelSnapshot> snapshot =
      slot.live.current();
  ServeResponse response;
  response.id = request.id;
  response.model_id = request.model_id;
  response.outcome = ServeOutcome::kDegraded;
  response.action = snapshot->monitor().safe_action();
  response.model_version = snapshot->version();
  response.backend = snapshot->backend();
  metrics_.shed.fetch_add(1, kRelaxed);
  slot.metrics.shed.fetch_add(1, kRelaxed);
  count(metrics_, response);
  count(slot.metrics.counters, response);
  count(metrics_.version_counters(snapshot->version()), response);
  count(metrics_.backend_counters(linalg::to_string(snapshot->backend())),
        response);
  metrics_.note_queue_depth(table_.depth());
  request.promise.set_value(std::move(response));
}

std::string MultiModelServer::version(const std::string& model_id) const {
  return known_slot(table_, model_id, "version").live.current()->version();
}

linalg::KernelBackend MultiModelServer::backend(
    const std::string& model_id) const {
  return known_slot(table_, model_id, "backend").live.current()->backend();
}

void MultiModelServer::stop() { pool_.stop(); }

}  // namespace safenn::serve
