#include "serve/engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "linalg/qmatrix.hpp"
#include "nn/qengine.hpp"

namespace safenn::serve {
namespace {

double seconds_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// The integer kernel the packed engine may run: the SIMD dispatch when
/// it is bitwise equal to the scalar reference on the payload's shapes.
/// Integer kernels carry no tolerance: any violation demotes only the
/// inner kernel to the scalar reference, which IS the verified semantics
/// — the quantized backend itself stays admitted.
linalg::KernelBackend quantized_kernel(const nn::QuantizedNetwork& qnet,
                                       std::size_t batch) {
  // The payload's exact (batch, in, out) GEMM shapes, pinned on top of
  // the harness's randomized sweep.
  linalg::QuantKernelVerifyConfig config;
  for (std::size_t li = 0; li < qnet.num_layers(); ++li) {
    config.extra_shapes.push_back(
        {batch, qnet.layer(li).in_size(), qnet.layer(li).out_size()});
  }
  const linalg::QuantKernelReport report =
      linalg::verify_quantized_kernels(config);
  if (report.pass) {
    log_info("serve: quantized SIMD kernels (", linalg::to_string(report.isa),
             ") bitwise equal to the scalar integer reference over ",
             report.checks.size(), " shapes");
    return linalg::KernelBackend::kQuantized;
  }
  log_warn("serve: quantized SIMD kernels REJECTED by bitwise harness (",
           report.summary(), "); serving the scalar integer kernels");
  return linalg::KernelBackend::kReference;
}

}  // namespace

std::shared_ptr<const registry::ModelSnapshot> admit_snapshot(
    const registry::ModelArtifact& artifact, linalg::KernelBackend requested,
    std::size_t max_batch) {
  using linalg::KernelBackend;
  const std::size_t batch = std::max<std::size_t>(1, max_batch);
  if (requested == KernelBackend::kQuantized) {
    if (!artifact.quantized.has_value()) {
      log_warn("serve: kQuantized requested but artifact ", artifact.version,
               " carries no quantized payload; serving float reference "
               "kernels");
    } else {
      try {
        // The snapshot packs the engine — the one pack of this admission,
        // which runs the overflow analysis over the declared domain.
        return std::make_shared<const registry::ModelSnapshot>(
            artifact, KernelBackend::kQuantized,
            quantized_kernel(artifact.quantized->network, batch));
      } catch (const nn::QuantizeError& e) {
        log_warn("serve: quantized payload of artifact ", artifact.version,
                 " failed packing admission (", e.what(),
                 "); serving float reference kernels");
      }
    }
  }
  return std::make_shared<const registry::ModelSnapshot>(
      artifact, KernelBackend::kReference);
}

void ShieldedEngine::predict_means(const linalg::Matrix& scenes,
                                   std::vector<linalg::Vector>& means) const {
  means.resize(scenes.rows());
  const core::TrainedPredictor& predictor = snapshot_.predictor();
  if (const nn::QuantizedEngine* qengine = snapshot_.quantized_engine()) {
    // Exact integer path: saturating quantize -> packed fixed-point
    // forward (bitwise equal to the scalar QuantizedNetwork reference)
    // -> de-quantize -> the same MDN head parse the float path uses.
    nn::QuantizedEngine::Scratch scratch;
    linalg::Matrix raw;
    qengine->forward_real_batch(scenes, scratch, raw);
    linalg::Vector row(raw.cols());
    for (std::size_t r = 0; r < scenes.rows(); ++r) {
      std::copy(raw.data() + r * raw.cols(),
                raw.data() + (r + 1) * raw.cols(), row.data());
      means[r] = predictor.head.parse(row).mean();
    }
    return;
  }
  const std::vector<nn::GaussianMixture> mixtures =
      predictor.predict_batch(scenes);
  for (std::size_t r = 0; r < scenes.rows(); ++r) {
    means[r] = mixtures[r].mean();
  }
}

ServeResponse ShieldedEngine::serve(const ServeRequest& request,
                                    Clock::time_point now) const {
  const core::SafetyMonitor& monitor = snapshot_.monitor();
  ServeResponse response;
  response.id = request.id;
  response.model_id = request.model_id;
  response.model_version = snapshot_.version();
  response.backend = snapshot_.backend();
  if (now > request.deadline) {
    // Bounded-latency fallback: the deadline is already blown, so answer
    // with the provably safe action instead of a late prediction.
    response.outcome = ServeOutcome::kDegraded;
    response.action = monitor.safe_action();
    return response;
  }
  const Clock::time_point start = Clock::now();
  core::GuardDecision decision;
  if (snapshot_.quantized_engine() != nullptr) {
    // Single-request quantized serve is the batched path at batch 1 —
    // same arithmetic, same bits, as serve_batch demands.
    linalg::Matrix scene(1, request.scene.size());
    std::copy(request.scene.data(),
              request.scene.data() + request.scene.size(), scene.data());
    std::vector<linalg::Vector> means;
    predict_means(scene, means);
    decision = monitor.guard_action(request.scene, means.front());
  } else {
    decision = monitor.guard(snapshot_.predictor(), request.scene);
  }
  response.infer_seconds = seconds_since(start, Clock::now());
  response.outcome =
      decision.intervened ? ServeOutcome::kClamped : ServeOutcome::kServed;
  response.action = std::move(decision.action);
  response.assumption_hit = decision.assumption_hit;
  response.intervened = decision.intervened;
  return response;
}

std::vector<ServeResponse> ShieldedEngine::serve_batch(
    const std::vector<ServeRequest>& requests, Clock::time_point now) const {
  const core::SafetyMonitor& monitor = snapshot_.monitor();
  std::vector<ServeResponse> responses(requests.size());
  // Deadline triage first: expired requests get the safe fallback and
  // never touch the predictor (same policy as serve()).
  std::vector<std::size_t> live;
  live.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses[i].id = requests[i].id;
    responses[i].model_id = requests[i].model_id;
    responses[i].model_version = snapshot_.version();
    responses[i].backend = snapshot_.backend();
    if (now > requests[i].deadline) {
      responses[i].outcome = ServeOutcome::kDegraded;
      responses[i].action = monitor.safe_action();
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return responses;

  const Clock::time_point start = Clock::now();
  linalg::Matrix scenes(live.size(), requests[live.front()].scene.size());
  for (std::size_t r = 0; r < live.size(); ++r) {
    const linalg::Vector& s = requests[live[r]].scene;
    require(s.size() == scenes.cols(), "serve_batch: ragged scene widths");
    std::copy(s.data(), s.data() + s.size(),
              scenes.data() + r * scenes.cols());
  }
  std::vector<linalg::Vector> means;
  predict_means(scenes, means);
  for (std::size_t r = 0; r < live.size(); ++r) {
    const std::size_t i = live[r];
    core::GuardDecision decision =
        monitor.guard_action(requests[i].scene, means[r]);
    ServeResponse& response = responses[i];
    response.outcome =
        decision.intervened ? ServeOutcome::kClamped : ServeOutcome::kServed;
    response.action = std::move(decision.action);
    response.assumption_hit = decision.assumption_hit;
    response.intervened = decision.intervened;
  }
  const double per_row_seconds = seconds_since(start, Clock::now()) /
                                 static_cast<double>(live.size());
  for (const std::size_t i : live) {
    responses[i].infer_seconds = per_row_seconds;
  }
  return responses;
}

}  // namespace safenn::serve
