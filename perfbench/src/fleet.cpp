#include "fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <stdexcept>
#include <thread>

#include "battery.hpp"
#include "common/hash.hpp"
#include "core/pipeline.hpp"
#include "host.hpp"
#include "registry/registry.hpp"
#include "stats.hpp"

namespace perfbench {

namespace serve = safenn::serve;
namespace registry = safenn::registry;
namespace linalg = safenn::linalg;

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point to_time_point(double abs_seconds) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(abs_seconds)));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

Fleet load_fleet(const std::string& data_dir) {
  Fleet fleet;
  fleet.scenes = load_scenes(data_dir + "/scenes.pk");
  const registry::ModelRegistry reg(data_dir + "/fleet");
  fleet.alpha = reg.load("alpha-v1");
  fleet.beta = reg.load("beta-v1");
  if (!fleet.beta.quantized) {
    throw std::runtime_error("fleet: beta-v1 carries no quantized payload");
  }
  return fleet;
}

serve::MultiModelConfig fleet_config(double deadline_seconds) {
  serve::MultiModelConfig cfg;
  // A backlog budget deep enough to absorb a host stall of a few
  // milliseconds at full load: sheds mark sustained overload, not jitter.
  // Per-model queues hold the whole budget, so overload sheds (answered
  // with the safe action) rather than rejects.
  cfg.queue_capacity = 4096;
  cfg.admission_budget = 4096;
  cfg.pool.workers = kFleetWorkers;
  cfg.pool.max_batch = kFleetMaxBatch;
  cfg.deadline_seconds = deadline_seconds;
  cfg.backend = linalg::KernelBackend::kQuantized;
  cfg.admission = serve::AdmissionPolicy::kDegradeAtWatermark;
  cfg.queue_watermark = 0.75;
  return cfg;
}

std::uint16_t VersionTable::intern(const std::string& version) {
  const auto it = ids_.find(version);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(names_.size());
  ids_.emplace(version, id);
  names_.push_back(version);
  return id;
}

bool RequestRecord::failed() const {
  return broken ||
         outcome == static_cast<std::uint8_t>(serve::ServeOutcome::kRejected) ||
         outcome == static_cast<std::uint8_t>(serve::ServeOutcome::kDegraded);
}

double RequestRecord::charged_ms(double limit_ms) const {
  const double observed = (done - scheduled) * 1e3;
  return failed() ? std::max(observed, std::nextafter(limit_ms, 1e300))
                  : observed;
}

LatencySummary traffic_latency(const std::vector<RequestRecord>& records,
                               double limit_ms) {
  std::vector<double> ms;
  ms.reserve(records.size());
  for (const RequestRecord& rec : records) {
    ms.push_back(rec.charged_ms(limit_ms));
  }
  return summarize_latency(std::move(ms));
}

TrafficPlan make_traffic(std::uint64_t seed, double rate, double seconds,
                         std::size_t scene_pool) {
  TrafficPlan plan;
  plan.offsets = poisson_schedule(derive_seed(seed, 1), rate, seconds);
  SplitMix64 pick(derive_seed(seed, 2));
  plan.scenes.reserve(plan.offsets.size());
  plan.models.reserve(plan.offsets.size());
  for (std::size_t i = 0; i < plan.offsets.size(); ++i) {
    plan.scenes.push_back(
        static_cast<std::uint32_t>(pick.next() % scene_pool));
    // 3:1 skew toward alpha.
    plan.models.push_back(pick.next() % 4 == 3 ? 1 : 0);
  }
  return plan;
}

std::uint64_t plan_hash(const TrafficPlan& plan) {
  safenn::Fnv1a64 h;
  for (std::size_t i = 0; i < plan.offsets.size(); ++i) {
    h.update(&plan.offsets[i], sizeof(double));
    h.update(&plan.scenes[i], sizeof(std::uint32_t));
    h.update(&plan.models[i], sizeof(std::uint8_t));
  }
  return h.digest();
}

TrafficRun run_traffic(serve::MultiModelServer& server, const Fleet& fleet,
                       const TrafficPlan& plan, VersionTable& versions,
                       const std::function<bool(double)>& stop) {
  TrafficRun run;
  const std::size_t n = plan.offsets.size();
  // Reserved, not filled: a plan longer than the run touches no memory.
  run.records.reserve(n);
  run.depth_at_send.reserve(n);

  using Pending = std::deque<
      std::pair<std::size_t, std::future<serve::ServeResponse>>>;
  // Unanswered requests per model, oldest first. A model's queue is FIFO
  // and its batches hold only its requests, so its responses complete in
  // send order except across batches the workers run at the same time:
  // a sweep polls a model's requests up to kReorderWindow past its oldest
  // unanswered one, which covers every response that can be ready.
  Pending pending[2];
  constexpr std::size_t kReorderWindow = kFleetWorkers * kFleetMaxBatch;
  const auto observe = [&](std::size_t i,
                           std::future<serve::ServeResponse>& fut) {
    RequestRecord& rec = run.records[i];
    serve::ServeResponse r;
    try {
      r = fut.get();
    } catch (const std::exception&) {
      rec.broken = true;
      rec.done = now_seconds();
      return;
    }
    rec.done = now_seconds();
    rec.outcome = static_cast<std::uint8_t>(r.outcome);
    rec.backend = static_cast<std::uint8_t>(r.backend);
    rec.queue_s = static_cast<float>(r.queue_seconds);
    rec.infer_s = static_cast<float>(r.infer_seconds);
    rec.tag_ok = r.model_id == kModelIds[rec.model];
    rec.version = versions.intern(r.model_version);
    rec.assumption_hit = r.assumption_hit;
    rec.intervened = r.intervened;
    if (r.action.size() == 2) {
      rec.action[0] = r.action[0];
      rec.action[1] = r.action[1];
    } else if (r.outcome != serve::ServeOutcome::kRejected) {
      rec.tag_ok = false;  // an answered request must carry an action
    }
  };
  const auto ready = [](const std::future<serve::ServeResponse>& fut) {
    return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  const auto sweep = [&] {
    for (Pending& q : pending) {
      std::size_t unanswered = 0;
      for (auto it = q.begin(); it != q.end() && unanswered <= kReorderWindow;) {
        if (!ready(it->second)) {
          ++unanswered;
          ++it;
          continue;
        }
        observe(it->first, it->second);
        it = q.erase(it);
      }
    }
  };
  // Sleeps until `until` or until the oldest unanswered request answers,
  // whichever is first, and at most kPollSeconds, so a response that
  // answers out of order waits no longer than that to be observed.
  const auto wait = [&](double until) {
    Pending* oldest = nullptr;
    for (Pending& q : pending) {
      if (!q.empty() && (oldest == nullptr ||
                         q.front().first < oldest->front().first)) {
        oldest = &q;
      }
    }
    const double t = std::min(until, now_seconds() + kPollSeconds);
    if (oldest == nullptr) {
      std::this_thread::sleep_until(to_time_point(until));
    } else {
      oldest->front().second.wait_until(to_time_point(t));
    }
  };

  const double cpu0 = process_cpu_seconds();
  run.start = now_seconds();
  std::size_t sent = 0;
  for (; sent < n; ++sent) {
    const double due = run.start + plan.offsets[sent];
    if (stop && stop(due - run.start)) break;
    for (;;) {
      sweep();
      if (now_seconds() >= due) break;
      wait(due);
    }
    RequestRecord& rec = run.records.emplace_back();
    rec.scheduled = due;
    rec.scene = plan.scenes[sent];
    rec.model = plan.models[sent];
    linalg::Vector scene = fleet.scenes[rec.scene];
    rec.sent_begin = now_seconds();
    std::future<serve::ServeResponse> fut =
        server.submit(kModelIds[rec.model], std::move(scene));
    rec.sent_end = now_seconds();
    run.depth_at_send.push_back(static_cast<double>(server.depth()));
    // Shed and rejected requests answer inside submit().
    if (ready(fut)) {
      observe(sent, fut);
    } else {
      pending[rec.model].emplace_back(sent, std::move(fut));
    }
  }
  for (;;) {
    sweep();
    if (pending[0].empty() && pending[1].empty()) break;
    wait(now_seconds() + kPollSeconds);
  }
  run.end = now_seconds();
  run.cpu_s = process_cpu_seconds() - cpu0;
  return run;
}

std::vector<Span> request_spans(const RequestRecord& rec, double epoch) {
  const double q0 = rec.sent_end - epoch;
  const double q1 = q0 + rec.queue_s;
  std::vector<Span> tree;
  tree.reserve(5);
  tree.push_back({"request", rec.scheduled - epoch, rec.done - epoch, -1, 0});
  tree.push_back({"gen.late", rec.scheduled - epoch, rec.sent_begin - epoch,
                  0, 0});
  tree.push_back({"serve.submit", rec.sent_begin - epoch, q0, 0, 0});
  tree.push_back({"serve.queue", q0, q1, 0, 0});
  tree.push_back({"serve.infer", q1, q1 + rec.infer_s, 0, 0});
  return tree;
}

// ------------------------------------------------------------- replay

ReplayChecker::ReplayChecker(const Fleet& fleet) : fleet_(fleet) {
  add_artifact(fleet.alpha);
  add_artifact(fleet.beta);
}

void ReplayChecker::add_artifact(const registry::ModelArtifact& artifact) {
  if (replayers_.count(artifact.version) != 0) return;
  Replayer r;
  r.predictor = artifact.predictor();
  r.monitor = std::make_unique<safenn::core::SafetyMonitor>(
      artifact.monitor.region, artifact.monitor.lateral_threshold);
  if (artifact.quantized) {
    // The scalar integer reference: every kernel is bitwise equal to it.
    r.qengine = std::make_unique<safenn::nn::QuantizedEngine>(
        artifact.quantized->network, artifact.quantized->input_limit,
        linalg::KernelBackend::kReference);
  }
  replayers_.emplace(artifact.version, std::move(r));
}

const ReplayChecker::Decision& ReplayChecker::decide(
    const std::string& version, std::uint32_t scene) {
  const auto id_it =
      memo_ids_.emplace(version, static_cast<std::uint16_t>(memo_ids_.size()))
          .first;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(id_it->second) << 32) | scene;
  const auto hit = memo_.find(key);
  if (hit != memo_.end()) return hit->second;

  Replayer& r = replayers_.at(version);
  const linalg::Vector& x = fleet_.scenes[scene];
  safenn::core::GuardDecision d;
  if (r.qengine) {
    safenn::nn::QuantizedEngine::Scratch scratch;
    linalg::Matrix rows(1, x.size());
    for (std::size_t j = 0; j < x.size(); ++j) rows(0, j) = x[j];
    linalg::Matrix raw;
    r.qengine->forward_real_batch(rows, scratch, raw);
    linalg::Vector out(raw.cols());
    for (std::size_t j = 0; j < raw.cols(); ++j) out[j] = raw(0, j);
    d = r.monitor->guard_action(x, r.predictor.head.parse(out).mean());
  } else {
    d = r.monitor->guard(r.predictor, x);
  }
  Decision dec{{d.action.size() > 0 ? d.action[0] : 0.0,
                d.action.size() > 1 ? d.action[1] : 0.0},
               d.assumption_hit,
               d.intervened};
  return memo_.emplace(key, dec).first->second;
}

void ReplayChecker::fold(const std::vector<RequestRecord>& records,
                         const VersionTable& versions) {
  for (const RequestRecord& rec : records) {
    ++report_.responses;
    if (rec.broken) {
      ++report_.broken;
      continue;
    }
    const auto outcome = static_cast<serve::ServeOutcome>(rec.outcome);
    if (!rec.tag_ok) ++report_.untagged;
    if (outcome == serve::ServeOutcome::kRejected) continue;
    // The version must be one of the requested model's (labels are
    // "<model>-<tag>") and the arithmetic the one its artifact serves.
    const std::string& version = versions.name(rec.version);
    const auto rep = replayers_.find(version);
    const auto expected_backend = rep == replayers_.end() || rep->second.qengine
                                      ? linalg::KernelBackend::kQuantized
                                      : linalg::KernelBackend::kReference;
    if (rep == replayers_.end() ||
        version.rfind(std::string(kModelIds[rec.model]) + "-", 0) != 0 ||
        static_cast<linalg::KernelBackend>(rec.backend) != expected_backend) {
      ++report_.untagged;
      continue;
    }
    Tally& t = tallies_[version];
    ++t.answered;
    if (outcome == serve::ServeOutcome::kDegraded) continue;
    const Decision& d = decide(version, rec.scene);
    t.hits += d.hit ? 1 : 0;
    t.interventions += d.intervened ? 1 : 0;
    if (!same_bits(d.action[0], rec.action[0]) ||
        !same_bits(d.action[1], rec.action[1]) ||
        d.hit != rec.assumption_hit || d.intervened != rec.intervened) {
      ++report_.action_mismatches;
    }
  }
}

ReplayReport ReplayChecker::finish(serve::MetricsRegistry& metrics) const {
  ReplayReport out = report_;
  for (const auto& [version, t] : tallies_) {
    ++out.pairs;
    const serve::VersionCounters& slice = metrics.version_counters(version);
    if (slice.completed() != t.answered ||
        slice.interventions.load() != t.interventions ||
        slice.assumption_hits.load() != t.hits) {
      ++out.pair_mismatches;
    }
  }
  out.mixed_batches = metrics.mixed_batches.load();
  return out;
}

}  // namespace perfbench
