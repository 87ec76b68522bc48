// Serving, proven end to end: compressed artifacts, routed throughput,
// worker scaling, and determinism across hot swaps. A single model is a
// one-entry MultiModelServer, so every section runs the one serving path.
//
// The run is an executable check (exit nonzero on any violation),
// reported as JSON (stdout + SAFENN_MM_JSON, default BENCH_multimodel.json):
//
//   1. Compression: every published predictor artifact round-trips
//      BITWISE through the packed (v3, safenn-pack) encoding — identical
//      content hash AND identical canonical re-serialization — at a
//      compression ratio >= 2x. The serving phases load their models
//      from the packed registry, so what is proven below was read from
//      compressed bytes.
//   2. Routed throughput: a 2-model fleet at 1 worker stays within 10% of
//      a one-entry fleet (alpha alone) at 1 worker. Best-of-N trials
//      each, interleaved (single, routed, single, ...) so host drift hits
//      both sides alike; the delta is routing + sharded-queue overhead.
//   3. Worker scaling: a one-entry fleet serves the same scenes at 1/2/4
//      workers (1/2 under --smoke); at every worker count its
//      intervention total equals a sequential replay of those scenes.
//   4. Determinism under routing + work stealing + hot swaps: beta swaps
//      v1 -> v2 -> v3 -> v4 under live traffic, each made by the producer
//      once the live version has answered traffic, and each answering
//      requests that were queued before it (no swap lands on a drained
//      fleet), so every version takes traffic. Zero
//      cross-model mixed micro-batches; no request rejected; every
//      response tagged with (model_id, version, backend); each (model,
//      version)'s intervention/assumption counters BITWISE equal to a
//      sequential replay of exactly the scenes that pair served;
//      per-model slices equal to the sum of that model's version slices;
//      global interventions and hits equal to the sum of the version
//      slices.
//
// Env knobs: SAFENN_MM_SCENES (default 6000), SAFENN_MM_PERF_SCENES
// (default 3000), SAFENN_MM_WIDTH (default 24), SAFENN_MM_WORKERS
// (determinism phase, default 4), SAFENN_MM_TRIALS (default 3),
// SAFENN_MM_JSON, SAFENN_MM_DIR. `--smoke` shrinks everything for CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/stopwatch.hpp"
#include "core/monitor.hpp"
#include "highway/safety_rules.hpp"
#include "registry/registry.hpp"
#include "serve/multi_model.hpp"

using namespace safenn;

namespace {

struct CompressionReport {
  std::string version;
  std::size_t plain_bytes = 0;
  std::size_t packed_bytes = 0;
  double ratio = 0.0;
  bool bitwise = false;
};

struct PairReport {
  std::string model_id;
  std::string version;
  std::size_t requests = 0;
  std::uint64_t interventions = 0;
  std::uint64_t replay_interventions = 0;
  std::uint64_t assumption_hits = 0;
  std::uint64_t replay_assumption_hits = 0;
  bool match = false;
};

std::vector<linalg::Vector> replay_scenes(const data::Dataset& data,
                                          std::size_t count) {
  std::vector<linalg::Vector> scenes;
  scenes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    scenes.push_back(data.input(i % data.size()));
  }
  return scenes;
}

/// Version k's model: a deterministic lateral-bias shift gives each
/// (model, version) a distinct intervention profile, so "the right
/// model+version answered" is observable in the counters, not just in
/// the response tags.
core::TrainedPredictor variant_predictor(const core::TrainedPredictor& base,
                                         std::size_t k) {
  core::TrainedPredictor p = base;
  const std::size_t lat = p.head.mean_index(0, highway::kActionLateral);
  nn::DenseLayer& out = p.network.layer(p.network.num_layers() - 1);
  out.biases()[lat] += 0.15 * static_cast<double>(k);
  return p;
}

std::size_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

/// Canonical plain-text serialization of an artifact (the bitwise
/// round-trip comparand: encoding-independent by construction).
std::string canonical_text(const registry::ModelArtifact& artifact) {
  std::ostringstream os;
  registry::save_artifact(os, artifact);
  return os.str();
}

struct ScalePoint {
  std::size_t workers = 0;
  double throughput_rps = 0.0;
  double speedup = 1.0;
  double p99_total_ms = 0.0;
  double mean_batch = 0.0;
  std::uint64_t interventions = 0;
};

serve::MultiModelConfig fleet_config(std::size_t workers) {
  serve::MultiModelConfig cfg;
  cfg.queue_capacity = 256;
  cfg.admission_budget = 512;
  cfg.pool.workers = workers;
  cfg.pool.max_batch = 16;
  return cfg;
}

/// Serves the first `n` scenes through `server` with blocking submits,
/// round-robin over its models; returns requests per second from the
/// first submit to the last answer.
double replay_rps(serve::MultiModelServer& server,
                  const std::vector<linalg::Vector>& scenes, std::size_t n) {
  const std::vector<std::string> ids = server.model_ids();
  std::vector<std::future<serve::ServeResponse>> futures(n);
  Stopwatch clock;
  for (std::size_t i = 0; i < n; ++i) {
    futures[i] = server.submit_blocking(ids[i % ids.size()], scenes[i]);
  }
  for (auto& f : futures) f.wait();
  return static_cast<double>(n) / std::max(clock.seconds(), 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const auto n_scenes = static_cast<std::size_t>(
      bench::env_long("SAFENN_MM_SCENES", smoke ? 1200 : 6000));
  const auto n_perf = static_cast<std::size_t>(
      bench::env_long("SAFENN_MM_PERF_SCENES", smoke ? 800 : 3000));
  const auto width = static_cast<std::size_t>(
      bench::env_long("SAFENN_MM_WIDTH", smoke ? 16 : 24));
  const auto workers = static_cast<std::size_t>(
      bench::env_long("SAFENN_MM_WORKERS", 4));
  const auto trials = static_cast<std::size_t>(
      bench::env_long("SAFENN_MM_TRIALS", smoke ? 2 : 3));
  const char* dir_env = std::getenv("SAFENN_MM_DIR");
  const std::string dir =
      dir_env && *dir_env ? dir_env : "BENCH_multimodel_registry";

  std::printf("# multi-model serving%s: %zu det scenes, %zu perf scenes x%zu "
              "trials, I4x%zu, %zu det workers\n",
              smoke ? " (smoke)" : "", n_scenes, n_perf, trials, width,
              workers);

  highway::SceneEncoder encoder;
  const highway::BuiltDataset built = bench::standard_dataset(encoder);
  const core::TrainedPredictor base =
      bench::train_predictor(built.data, width, smoke ? 2 : 6);
  const std::vector<linalg::Vector> scenes =
      replay_scenes(built.data, std::max(n_scenes, n_perf));
  registry::MonitorConfig monitor_config;
  monitor_config.region = highway::make_vehicle_on_left_region(
      encoder, highway::data_domain_box(built.data, encoder));
  // Low threshold so the shield intervenes on the replay mix; the
  // per-pair replay check is vacuous at zero interventions.
  monitor_config.lateral_threshold =
      bench::env_double("SAFENN_MM_THRESHOLD", -0.2);

  // ---- Phase 1: publish plain + packed, prove the compression gate. ----
  // Unique version labels per (model, version) pair, so the server's
  // version slices ARE the per-(model, version) slices.
  const std::vector<std::pair<std::string, std::size_t>> chain = {
      {"alpha-v1", 0}, {"beta-v1", 1}, {"beta-v2", 2}, {"beta-v3", 3},
      {"beta-v4", 4}};
  const std::string dir_plain = dir + "_plain";
  const std::string dir_packed = dir + "_packed";
  std::filesystem::remove_all(dir_plain);
  std::filesystem::remove_all(dir_packed);
  registry::ModelRegistry reg_plain(dir_plain);
  registry::ModelRegistry reg_packed(dir_packed);

  std::vector<CompressionReport> compression;
  std::map<std::string, registry::ModelArtifact> served;  // from PACKED bytes
  bool compression_ok = true;
  for (const auto& [version, variant] : chain) {
    registry::ModelArtifact artifact = registry::make_artifact(
        version, variant_predictor(base, variant), monitor_config);
    const std::string canonical = canonical_text(artifact);
    const std::string plain_path = reg_plain.save(artifact);
    const std::string packed_path =
        reg_packed.save(artifact, registry::ArtifactEncoding::kPacked);

    CompressionReport report;
    report.version = version;
    report.plain_bytes = file_size(plain_path);
    report.packed_bytes = file_size(packed_path);
    report.ratio = report.packed_bytes == 0
                       ? 0.0
                       : static_cast<double>(report.plain_bytes) /
                             static_cast<double>(report.packed_bytes);
    registry::ModelArtifact loaded = reg_packed.load(version);
    report.bitwise = canonical_text(loaded) == canonical &&
                     loaded.content_hash == artifact.content_hash;
    compression_ok =
        compression_ok && report.bitwise && report.ratio >= 2.0;
    std::printf("compress %-9s  %6zu -> %5zu bytes  ratio %.2fx  %s\n",
                version.c_str(), report.plain_bytes, report.packed_bytes,
                report.ratio, report.bitwise ? "bitwise" : "MISMATCH");
    compression.push_back(report);
    served.emplace(version, std::move(loaded));
  }

  // ---- Phase 2: routed 2-model throughput vs a one-entry fleet. ----
  // Both at 1 worker, same total request count, same network shapes:
  // the delta is routing + sharded-queue overhead, nothing else.
  const std::vector<serve::ModelEntry> single_fleet = {
      {"alpha", served.at("alpha-v1")}};
  const std::vector<serve::ModelEntry> routed_fleet = {
      {"alpha", served.at("alpha-v1")}, {"beta", served.at("beta-v1")}};
  const auto trial_rps = [&](const std::vector<serve::ModelEntry>& fleet) {
    serve::MultiModelServer server(fleet, fleet_config(1));
    const double rps = replay_rps(server, scenes, n_perf);
    server.stop();
    return rps;
  };
  double baseline_rps = 0.0, routed_rps = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    baseline_rps = std::max(baseline_rps, trial_rps(single_fleet));
    routed_rps = std::max(routed_rps, trial_rps(routed_fleet));
  }
  const double overhead =
      baseline_rps <= 0.0 ? 1.0 : 1.0 - routed_rps / baseline_rps;
  const bool perf_ok = overhead <= 0.10;
  std::printf("# throughput @1 worker: single %.0f rps, routed-2 %.0f rps "
              "(overhead %+.1f%%) => %s\n",
              baseline_rps, routed_rps, overhead * 100.0,
              perf_ok ? "within 10%" : "TOO SLOW");

  // ---- Phase 3: one-entry fleet at 1/2/4 workers vs sequential replay. --
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::uint64_t seq_interventions = 0;
  {
    const registry::ModelArtifact& alpha = served.at("alpha-v1");
    core::SafetyMonitor sequential(alpha.monitor.region,
                                   alpha.monitor.lateral_threshold);
    const core::TrainedPredictor predictor = alpha.predictor();
    for (std::size_t i = 0; i < n_perf; ++i) {
      sequential.guard(predictor, scenes[i]);
    }
    seq_interventions = sequential.stats().interventions;
  }
  std::vector<ScalePoint> sweep;
  bool sweep_ok = seq_interventions > 0;
  for (std::size_t w = 1; w <= (smoke ? 2u : 4u); w *= 2) {
    serve::MultiModelServer server(single_fleet, fleet_config(w));
    ScalePoint p;
    p.workers = w;
    p.throughput_rps = replay_rps(server, scenes, n_perf);
    server.stop();
    p.speedup = sweep.empty() ? 1.0
                              : p.throughput_rps / sweep.front().throughput_rps;
    p.p99_total_ms = server.metrics().total_latency.percentile_ns(0.99) / 1e6;
    p.mean_batch = server.metrics().mean_batch_size();
    p.interventions = server.metrics().interventions.load();
    sweep_ok = sweep_ok && p.interventions == seq_interventions;
    std::printf("workers=%zu  %8.0f req/s  speedup %.2fx  p99 %.3fms  "
                "mean batch %.1f  interventions %llu (replay %llu, %s)\n",
                p.workers, p.throughput_rps, p.speedup, p.p99_total_ms,
                p.mean_batch, static_cast<unsigned long long>(p.interventions),
                static_cast<unsigned long long>(seq_interventions),
                p.interventions == seq_interventions ? "match" : "MISMATCH");
    sweep.push_back(p);
  }

  // ---- Phase 4: determinism under routing + stealing + hot swaps. ----
  serve::MultiModelServer server(routed_fleet, fleet_config(workers));
  const auto model_for = [](std::size_t i) {
    return i % 2 == 0 ? "alpha" : "beta";
  };
  // Beta swaps v1 -> v2 -> v3 -> v4 under live traffic, one swap per
  // chunk of the stream, made by the producer in the middle of the chunk
  // right after a submit, so it lands on the requests still queued from
  // the stream; the new version must answer some of them (checked
  // below), so no swap lands on a drained fleet. After each swap, and at
  // the start, the producer waits for the answer to the first beta
  // request it sends, so every version serves traffic.
  const std::vector<std::string> swaps = {"beta-v2", "beta-v3", "beta-v4"};
  const std::size_t chunk =
      std::max<std::size_t>(1, n_scenes / (swaps.size() + 1));
  std::vector<std::size_t> swap_at;  // requests sent before each swap
  std::vector<std::future<serve::ServeResponse>> futures(n_scenes);
  Stopwatch clock;
  std::size_t first_beta = 1;  // beta takes the odd indices
  for (std::size_t i = 0; i < n_scenes; ++i) {
    futures[i] = server.submit_blocking(model_for(i), scenes[i]);
    if (i == first_beta) futures[i].wait();
    const std::size_t k = swap_at.size();
    if (k < swaps.size() && i == k * chunk + chunk / 2) {
      swap_at.push_back(i + 1);
      server.reload("beta", served.at(swaps[k]));
      first_beta = (i + 1) | 1;
    }
  }
  for (auto& f : futures) f.wait();
  const double det_seconds = clock.seconds();

  // Every response tagged (model_id, version, backend); group scene
  // indices by (model, version) for the replay.
  std::size_t rejected = 0, untagged = 0;
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
      by_pair;
  // carried[k]: beta requests sent before swap k that its version answered.
  std::vector<std::size_t> carried(swaps.size(), 0);
  for (std::size_t i = 0; i < n_scenes; ++i) {
    const serve::ServeResponse r = futures[i].get();
    if (r.outcome == serve::ServeOutcome::kRejected) {
      ++rejected;
      continue;
    }
    if (r.model_id != model_for(i) || r.model_version.empty()) ++untagged;
    by_pair[{r.model_id, r.model_version}].push_back(i);
    for (std::size_t k = 0; k < swap_at.size(); ++k) {
      if (i < swap_at[k] && r.model_version == swaps[k]) ++carried[k];
    }
  }
  bool under_load_ok = swap_at.size() == swaps.size();
  for (std::size_t k = 0; k < swap_at.size(); ++k) {
    under_load_ok = under_load_ok && carried[k] > 0;
    std::printf("swap %zu -> %-8s answered %3zu beta requests sent before "
                "it\n", k + 1, swaps[k].c_str(), carried[k]);
  }
  const bool tagging_ok = rejected == 0 && untagged == 0 &&
                          server.metrics().completed() == n_scenes;
  const std::uint64_t mixed = server.metrics().mixed_batches.load();

  // Bitwise replay per (model, version): version labels are unique per
  // pair, so the server's version slice is exactly the pair's slice.
  std::vector<PairReport> pairs;
  bool replay_ok = true;
  std::map<std::string, std::uint64_t> model_interventions, model_hits,
      model_completed;
  std::uint64_t total_interventions = 0, total_hits = 0;
  for (const auto& [key, indices] : by_pair) {
    const auto& [model_id, version] = key;
    PairReport report;
    report.model_id = model_id;
    report.version = version;
    report.requests = indices.size();
    const registry::ModelArtifact& artifact = served.at(version);
    core::SafetyMonitor replay(artifact.monitor.region,
                               artifact.monitor.lateral_threshold);
    const core::TrainedPredictor predictor = artifact.predictor();
    for (const std::size_t i : indices) replay.guard(predictor, scenes[i]);
    report.replay_interventions = replay.stats().interventions;
    report.replay_assumption_hits = replay.stats().assumption_hits;
    const serve::VersionCounters& slice =
        server.metrics().version_counters(version);
    report.interventions = slice.interventions.load();
    report.assumption_hits = slice.assumption_hits.load();
    report.match = report.interventions == report.replay_interventions &&
                   report.assumption_hits == report.replay_assumption_hits &&
                   slice.completed() == report.requests;
    replay_ok = replay_ok && report.match;
    model_interventions[model_id] += report.replay_interventions;
    model_hits[model_id] += report.replay_assumption_hits;
    model_completed[model_id] += report.requests;
    total_interventions += report.interventions;
    total_hits += report.assumption_hits;
    std::printf("%-5s %-9s  %5zu req  interventions %5llu (replay %5llu)  "
                "hits %5llu (replay %5llu)  %s\n",
                model_id.c_str(), version.c_str(), report.requests,
                static_cast<unsigned long long>(report.interventions),
                static_cast<unsigned long long>(report.replay_interventions),
                static_cast<unsigned long long>(report.assumption_hits),
                static_cast<unsigned long long>(
                    report.replay_assumption_hits),
                report.match ? "match" : "MISMATCH");
    pairs.push_back(report);
  }
  // Every version took traffic; beta actually swapped to its last one.
  bool coverage_ok = by_pair.size() == chain.size();
  for (const auto& [version, variant] : chain) {
    (void)variant;
    bool found = false;
    for (const auto& [key, indices] : by_pair) {
      found = found || (key.second == version && !indices.empty());
    }
    coverage_ok = coverage_ok && found;
  }
  coverage_ok = coverage_ok &&
                server.metrics().reloads.load() == swaps.size() &&
                server.version("beta") == swaps.back() &&
                total_interventions > 0;
  // Shield continuity: the global counters are the sum of the version
  // slices, across every swap.
  const bool global_sums_ok =
      server.metrics().interventions.load() == total_interventions &&
      server.metrics().assumption_hits.load() == total_hits;
  // Per-model slices must equal the sum of that model's version replays.
  bool model_slices_ok = true;
  for (const auto& [model_id, interventions] : model_interventions) {
    const serve::ModelMetrics& m = server.metrics().model_metrics(model_id);
    model_slices_ok =
        model_slices_ok &&
        m.counters.interventions.load() == interventions &&
        m.counters.assumption_hits.load() == model_hits[model_id] &&
        m.counters.completed() == model_completed[model_id];
  }
  server.stop();

  const bool determinism_ok = tagging_ok && mixed == 0 && replay_ok &&
                              coverage_ok && under_load_ok &&
                              model_slices_ok && global_sums_ok;
  const bool pass = compression_ok && perf_ok && sweep_ok && determinism_ok;
  const double det_rps = static_cast<double>(n_scenes) / det_seconds;
  std::printf("# determinism @%zu workers, %zu swaps, %.0f rps: "
              "mixed_batches=%llu, tagging %s, replay %s, coverage %s, "
              "swaps under load %s, model slices %s, global sums %s => %s\n",
              workers, swaps.size(), det_rps,
              static_cast<unsigned long long>(mixed),
              tagging_ok ? "ok" : "BROKEN", replay_ok ? "exact" : "BROKEN",
              coverage_ok ? "ok" : "BROKEN", under_load_ok ? "ok" : "BROKEN",
              model_slices_ok ? "exact" : "BROKEN",
              global_sums_ok ? "exact" : "BROKEN", pass ? "PASS" : "FAIL");

  std::ostringstream json;
  json << "{\n  \"bench\": \"multimodel_serve\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"scenes\": " << n_scenes << ",\n"
       << "  \"perf_scenes\": " << n_perf << ",\n"
       << "  \"workers\": " << workers << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"compression\": [\n";
  for (std::size_t i = 0; i < compression.size(); ++i) {
    const CompressionReport& c = compression[i];
    json << "    {\"version\": \"" << c.version
         << "\", \"plain_bytes\": " << c.plain_bytes
         << ", \"packed_bytes\": " << c.packed_bytes
         << ", \"ratio\": " << c.ratio
         << ", \"bitwise\": " << (c.bitwise ? "true" : "false") << "}"
         << (i + 1 < compression.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"compression_ok\": " << (compression_ok ? "true" : "false")
       << ",\n"
       << "  \"baseline_rps_1w\": " << baseline_rps << ",\n"
       << "  \"routed_rps_1w\": " << routed_rps << ",\n"
       << "  \"routing_overhead_frac\": " << overhead << ",\n"
       << "  \"perf_ok\": " << (perf_ok ? "true" : "false") << ",\n"
       << "  \"sequential_interventions\": " << seq_interventions << ",\n"
       << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ScalePoint& p = sweep[i];
    json << "    {\"workers\": " << p.workers
         << ", \"throughput_rps\": " << p.throughput_rps
         << ", \"speedup\": " << p.speedup
         << ", \"p99_total_ms\": " << p.p99_total_ms
         << ", \"mean_batch_size\": " << p.mean_batch
         << ", \"interventions\": " << p.interventions << "}"
         << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"sweep_ok\": " << (sweep_ok ? "true" : "false") << ",\n"
       << "  \"swaps\": " << swaps.size() << ",\n"
       << "  \"swap_carried\": [";
  for (std::size_t k = 0; k < carried.size(); ++k) {
    json << (k > 0 ? ", " : "") << carried[k];
  }
  json << "],\n"
       << "  \"det_throughput_rps\": " << det_rps << ",\n"
       << "  \"mixed_batches\": " << mixed << ",\n"
       << "  \"rejected\": " << rejected << ",\n"
       << "  \"pairs\": [\n";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PairReport& p = pairs[i];
    json << "    {\"model\": \"" << p.model_id << "\", \"version\": \""
         << p.version << "\", \"requests\": " << p.requests
         << ", \"interventions\": " << p.interventions
         << ", \"replay_interventions\": " << p.replay_interventions
         << ", \"match\": " << (p.match ? "true" : "false") << "}"
         << (i + 1 < pairs.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"determinism_ok\": " << (determinism_ok ? "true" : "false")
       << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";

  const char* out_path = std::getenv("SAFENN_MM_JSON");
  const std::string path =
      out_path && *out_path ? out_path : "BENCH_multimodel.json";
  std::ofstream(path) << json.str();
  std::printf("\n%s", json.str().c_str());
  std::printf("# wrote %s\n", path.c_str());
  return pass ? 0 : 1;
}
