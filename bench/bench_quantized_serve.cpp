// Quantized serving end to end: serve the exact integer semantics the
// SMT stack verifies, and prove — bit for bit — that it did.
//
// The pipeline under test: train the I4xN predictor, register one
// artifact carrying BOTH representations (float network + fixed-point
// payload via registry::attach_quantized), serve it with the kQuantized
// backend, hot-swap to a float artifact and back under live traffic,
// then audit the run three ways:
//   1. kernel throughput — batched fixed-point forward, scalar reference
//      vs SIMD dispatch at batch 32 (the engine's bitwise-equal kernels,
//      so the speedup is free of any accuracy caveat);
//   2. served-vs-scalar replay — every response the quantized model
//      produced must equal a scalar QuantizedNetwork::forward_fixed
//      replay of its scene, action bits included;
//   3. served-vs-CNF replay — a sample of served scenes is pushed
//      through smt::eval_quantized_through_cnf, the very circuit the
//      SAT verifier reasons about, and must decode to identical bits.
// Also reports the quantized-vs-float intervention agreement rate (the
// fidelity cost of serving integers) and writes BENCH_quant.json.
// Exits nonzero if any bitwise check fails. `--smoke` shrinks for CI.
//
// Env knobs: SAFENN_QUANT_SCENES, SAFENN_QUANT_WIDTH, SAFENN_QUANT_FRAC,
// SAFENN_QUANT_REPS, SAFENN_QUANT_CNF_SAMPLES, SAFENN_QUANT_JSON.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "highway/safety_rules.hpp"
#include "nn/qengine.hpp"
#include "serve/multi_model.hpp"
#include "smt/qnn_encoder.hpp"

using namespace safenn;

namespace {

std::vector<linalg::Vector> replay_scenes(const data::Dataset& data,
                                          std::size_t count) {
  std::vector<linalg::Vector> scenes;
  scenes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    scenes.push_back(data.input(i % data.size()));
  }
  return scenes;
}

double scene_domain_limit(const std::vector<linalg::Vector>& scenes) {
  double limit = 1.0;
  for (const linalg::Vector& s : scenes) {
    for (std::size_t j = 0; j < s.size(); ++j) {
      limit = std::max(limit, std::abs(s[j]));
    }
  }
  return limit * 1.05;  // margin so no replay scene saturates
}

/// Scalar fixed-point replay mean for one scene (the reference the
/// served bits must match).
linalg::Vector replay_mean(const nn::QuantizedNetwork& qnet,
                           const nn::QuantizedEngine& engine,
                           const nn::MdnHead& head,
                           const linalg::Vector& scene,
                           nn::FixedScratch& scratch) {
  std::vector<std::int64_t> fixed(scene.size());
  for (std::size_t j = 0; j < scene.size(); ++j) {
    fixed[j] = engine.to_fixed(scene[j]);
  }
  const std::vector<std::int64_t>& out = qnet.forward_fixed(fixed, scratch);
  linalg::Vector raw(out.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    raw[j] = engine.from_fixed(out[j]);
  }
  return head.parse(raw).mean();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const auto n_scenes = static_cast<std::size_t>(
      bench::env_long("SAFENN_QUANT_SCENES", smoke ? 600 : 3000));
  const auto width = static_cast<std::size_t>(
      bench::env_long("SAFENN_QUANT_WIDTH", smoke ? 8 : 16));
  const int frac_bits =
      static_cast<int>(bench::env_long("SAFENN_QUANT_FRAC", 6));
  const auto kernel_reps = static_cast<std::size_t>(
      bench::env_long("SAFENN_QUANT_REPS", smoke ? 200 : 2000));
  const auto cnf_samples = static_cast<std::size_t>(
      bench::env_long("SAFENN_QUANT_CNF_SAMPLES", smoke ? 2 : 6));

  std::printf("# quantized serving%s: %zu scenes, I4x%zu predictor, "
              "frac_bits %d\n",
              smoke ? " (smoke)" : "", n_scenes, width, frac_bits);

  highway::SceneEncoder encoder;
  const highway::BuiltDataset built = bench::standard_dataset(encoder);
  const core::TrainedPredictor predictor =
      bench::train_predictor(built.data, width, smoke ? 3 : 6);
  const verify::InputRegion region = highway::make_vehicle_on_left_region(
      encoder, highway::data_domain_box(built.data, encoder));
  const std::vector<linalg::Vector> scenes =
      replay_scenes(built.data, n_scenes);
  const double input_limit = scene_domain_limit(scenes);
  const double threshold =
      bench::env_double("SAFENN_QUANT_THRESHOLD", smoke ? -0.2 : -0.05);

  // -- Register: one artifact, both representations. ----------------------
  registry::MonitorConfig monitor_cfg;
  monitor_cfg.region = region;
  monitor_cfg.lateral_threshold = threshold;
  registry::ModelArtifact quant_artifact =
      registry::make_artifact("vq", predictor, monitor_cfg);
  const std::uint64_t qhash =
      registry::attach_quantized(quant_artifact, frac_bits, input_limit);
  registry::ModelArtifact float_artifact =
      registry::make_artifact("vf", predictor, monitor_cfg);
  {
    std::stringstream ss;
    quant_artifact.content_hash = registry::save_artifact(ss, quant_artifact);
  }
  {
    std::stringstream ss;
    float_artifact.content_hash = registry::save_artifact(ss, float_artifact);
  }
  const nn::QuantizedNetwork& qnet = quant_artifact.quantized->network;
  std::printf("# quantized payload: hash %016llx, input limit %.2f\n",
              static_cast<unsigned long long>(qhash), input_limit);

  // -- 1. Kernel throughput: scalar vs SIMD batched forward at batch 32. --
  const nn::QuantizedEngine scalar_engine(qnet, input_limit,
                                          linalg::KernelBackend::kReference);
  const nn::QuantizedEngine simd_engine(qnet, input_limit,
                                        linalg::KernelBackend::kQuantized);
  constexpr std::size_t kBatch = 32;
  linalg::Int32Matrix batch_in;
  batch_in.resize(kBatch, qnet.input_size());
  for (std::size_t r = 0; r < kBatch; ++r) {
    const linalg::Vector& s = scenes[r % scenes.size()];
    for (std::size_t c = 0; c < qnet.input_size(); ++c) {
      batch_in(r, c) =
          static_cast<std::int32_t>(scalar_engine.to_fixed(s[c]));
    }
  }
  nn::QuantizedEngine::Scratch scratch;
  std::vector<std::int64_t> out_scalar, out_simd;
  const auto time_forward = [&](const nn::QuantizedEngine& engine,
                                std::vector<std::int64_t>& out) {
    engine.forward_fixed_batch(batch_in, scratch, out);  // warm scratch
    Stopwatch clock;
    for (std::size_t rep = 0; rep < kernel_reps; ++rep) {
      engine.forward_fixed_batch(batch_in, scratch, out);
    }
    return clock.seconds();
  };
  const double scalar_seconds = time_forward(scalar_engine, out_scalar);
  const double simd_seconds = time_forward(simd_engine, out_simd);
  const bool kernel_bitwise = out_scalar == out_simd;
  const double speedup =
      simd_seconds > 0.0 ? scalar_seconds / simd_seconds : 0.0;
  const double rows_per_sec =
      static_cast<double>(kBatch * kernel_reps) / simd_seconds;
  std::printf("# batch-%zu forward x%zu: scalar %.4fs, simd %.4fs -> "
              "%.2fx (%s), %.0f rows/s\n",
              kBatch, kernel_reps, scalar_seconds, simd_seconds, speedup,
              kernel_bitwise ? "bitwise equal" : "BITWISE MISMATCH",
              rows_per_sec);

  // -- Quantized vs float fidelity: intervention agreement rate. ----------
  std::size_t agree = 0, float_interventions = 0, quant_interventions = 0;
  {
    core::SafetyMonitor float_monitor(region, threshold);
    core::SafetyMonitor quant_monitor(region, threshold);
    nn::FixedScratch fs;
    for (const linalg::Vector& scene : scenes) {
      const core::GuardDecision fd = float_monitor.guard(predictor, scene);
      const core::GuardDecision qd = quant_monitor.guard_action(
          scene, replay_mean(qnet, scalar_engine, predictor.head, scene, fs));
      agree += fd.intervened == qd.intervened;
      float_interventions += fd.intervened;
      quant_interventions += qd.intervened;
    }
  }
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(scenes.size());
  std::printf("# intervention agreement quantized vs float: %.4f "
              "(%zu vs %zu interventions over %zu scenes)\n",
              agreement, quant_interventions, float_interventions,
              scenes.size());

  // -- 2. Serve with hot swaps: quantized -> float -> quantized. ----------
  serve::MultiModelConfig cfg;
  cfg.queue_capacity = 256;
  cfg.pool.workers = 2;
  cfg.pool.max_batch = kBatch;
  cfg.backend = linalg::KernelBackend::kQuantized;
  // One model, served as a one-entry fleet.
  serve::MultiModelServer server({{"model", quant_artifact}}, cfg);
  const bool admitted =
      server.backend("model") == linalg::KernelBackend::kQuantized;
  std::printf("# serving backend: %s\n",
              linalg::to_string(server.backend("model")).c_str());

  // Three traffic phases with a hot swap between each: quantized ->
  // float -> quantized. Swaps happen while the previous phase's backlog
  // may still be draining, so snapshot pinning is genuinely exercised.
  std::vector<std::future<serve::ServeResponse>> futures(scenes.size());
  Stopwatch serve_clock;
  const auto submit_range = [&](std::size_t lo, std::size_t hi) {
    std::thread producer([&, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) {
        futures[i] = server.submit_blocking("model", scenes[i]);
      }
    });
    producer.join();
  };
  const auto wait_completed = [&server](std::uint64_t target) {
    while (server.metrics().completed() < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  submit_range(0, n_scenes / 3);
  wait_completed(n_scenes / 3);
  server.reload("model", float_artifact);
  submit_range(n_scenes / 3, 2 * n_scenes / 3);
  wait_completed(2 * n_scenes / 3);
  server.reload("model", quant_artifact);
  submit_range(2 * n_scenes / 3, n_scenes);
  server.stop();
  const double serve_seconds = serve_clock.seconds();
  const std::uint64_t swaps = server.metrics().reloads.load();

  // -- 3. Audit: served-vs-scalar bitwise replay per quantized response. --
  std::size_t quant_served = 0, float_served = 0, replay_mismatches = 0;
  std::vector<std::size_t> quant_indices;
  {
    core::SafetyMonitor replay_monitor(region, threshold);
    nn::FixedScratch fs;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::ServeResponse r = futures[i].get();
      if (r.outcome == serve::ServeOutcome::kRejected) continue;
      if (r.backend != linalg::KernelBackend::kQuantized) {
        ++float_served;
        continue;
      }
      ++quant_served;
      quant_indices.push_back(i);
      const core::GuardDecision expected = replay_monitor.guard_action(
          scenes[i],
          replay_mean(qnet, scalar_engine, predictor.head, scenes[i], fs));
      bool same = r.intervened == expected.intervened &&
                  r.action.size() == expected.action.size();
      for (std::size_t d = 0; same && d < expected.action.size(); ++d) {
        same = r.action[d] == expected.action[d];
      }
      if (!same) ++replay_mismatches;
    }
  }
  std::printf("# served: %zu quantized + %zu float across %llu hot swaps; "
              "scalar replay mismatches: %zu\n",
              quant_served, float_served,
              static_cast<unsigned long long>(swaps), replay_mismatches);

  // -- 4. Audit: served scenes through the verifier's own CNF circuit. ----
  std::size_t cnf_checked = 0, cnf_mismatches = 0;
  double cnf_seconds = 0.0;
  {
    Stopwatch clock;
    const std::size_t stride =
        std::max<std::size_t>(1, quant_indices.size() / (cnf_samples + 1));
    for (std::size_t k = 0;
         k < cnf_samples && k * stride < quant_indices.size(); ++k) {
      const linalg::Vector& scene = scenes[quant_indices[k * stride]];
      std::vector<std::int64_t> fixed(scene.size());
      for (std::size_t j = 0; j < scene.size(); ++j) {
        fixed[j] = scalar_engine.to_fixed(scene[j]);
      }
      const std::vector<std::int64_t> via_cnf =
          smt::eval_quantized_through_cnf(qnet, fixed);
      if (via_cnf != qnet.forward_fixed(fixed)) ++cnf_mismatches;
      ++cnf_checked;
    }
    cnf_seconds = clock.seconds();
  }
  std::printf("# CNF replay: %zu served scenes decoded through the SAT "
              "circuit, %zu mismatches (%.2fs)\n",
              cnf_checked, cnf_mismatches, cnf_seconds);

  const bool pass = kernel_bitwise && replay_mismatches == 0 &&
                    cnf_mismatches == 0 && quant_served > 0 &&
                    float_served > 0 && swaps >= 2 && admitted;

  std::ostringstream json;
  json << "{\n  \"bench\": \"quantized_serve\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"scenes\": " << n_scenes << ",\n"
       << "  \"hidden_width\": " << width << ",\n"
       << "  \"frac_bits\": " << frac_bits << ",\n"
       << "  \"quantized_hash\": \"" << std::hex << qhash << std::dec
       << "\",\n"
       << "  \"kernel\": {\"batch\": " << kBatch
       << ", \"reps\": " << kernel_reps
       << ", \"scalar_seconds\": " << scalar_seconds
       << ", \"simd_seconds\": " << simd_seconds
       << ", \"speedup\": " << speedup
       << ", \"rows_per_second\": " << rows_per_sec
       << ", \"bitwise_equal\": " << (kernel_bitwise ? "true" : "false")
       << "},\n"
       << "  \"fidelity\": {\"intervention_agreement\": " << agreement
       << ", \"quantized_interventions\": " << quant_interventions
       << ", \"float_interventions\": " << float_interventions << "},\n"
       << "  \"serve\": {\"seconds\": " << serve_seconds
       << ", \"hot_swaps\": " << swaps
       << ", \"quantized_served\": " << quant_served
       << ", \"float_served\": " << float_served
       << ", \"replay_mismatches\": " << replay_mismatches << "},\n"
       << "  \"cnf_replay\": {\"checked\": " << cnf_checked
       << ", \"mismatches\": " << cnf_mismatches
       << ", \"seconds\": " << cnf_seconds << "},\n"
       << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";

  const char* out_path = std::getenv("SAFENN_QUANT_JSON");
  const std::string path =
      out_path && *out_path ? out_path : "BENCH_quant.json";
  std::ofstream(path) << json.str();
  std::printf("\n%s", json.str().c_str());
  std::printf("# wrote %s\n", path.c_str());
  return pass ? 0 : 1;
}
