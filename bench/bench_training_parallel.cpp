// Deterministic data-parallel training and parallel scenario generation:
// the 1/2/4-worker sweep over the shared TaskPool consumers. Reports
// JSON (stdout + SAFENN_TRAIN_JSON file, default BENCH_train.json).
//
// The exit code reflects DETERMINISM, not speed: at every worker count
// the generated dataset must be byte-identical to sequential generation,
// and the trained predictor (final weights, every per-epoch loss) must
// be bitwise identical to the 1-worker run. Per-epoch wall time per
// worker count is reported but never fails the run; on a single-core
// container >1x scaling is physically unobservable, while determinism is
// fully checkable anywhere.
//
// Env knobs: SAFENN_TRAIN_WORKERS (max sweep worker count, default 4),
// SAFENN_TRAIN_EPOCHS (default 6), SAFENN_TRAIN_WIDTH (hidden width,
// default 24), SAFENN_DATA_STEPS (via the dataset config), and
// SAFENN_TRAIN_JSON. `--smoke` shrinks everything so CI finishes in
// seconds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"

using namespace safenn;

namespace {

highway::DatasetBuildConfig dataset_config(bool smoke, int workers) {
  highway::DatasetBuildConfig cfg;
  cfg.sample_steps =
      static_cast<int>(bench::env_long("SAFENN_DATA_STEPS", smoke ? 40 : 120));
  cfg.warmup_steps = 30;
  cfg.seed = 7;
  cfg.num_workers = workers;
  return cfg;
}

bool datasets_identical(const highway::BuiltDataset& a,
                        const highway::BuiltDataset& b) {
  if (a.data.size() != b.data.size()) return false;
  if (a.risky_samples != b.risky_samples) return false;
  if (a.lane_change_samples != b.lane_change_samples) return false;
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    const linalg::Vector& xa = a.data.input(i);
    const linalg::Vector& xb = b.data.input(i);
    if (xa.size() != xb.size()) return false;
    for (std::size_t d = 0; d < xa.size(); ++d) {
      if (xa[d] != xb[d]) return false;
    }
    const linalg::Vector& ta = a.data.target(i);
    const linalg::Vector& tb = b.data.target(i);
    for (std::size_t d = 0; d < ta.size(); ++d) {
      if (ta[d] != tb[d]) return false;
    }
  }
  return true;
}

struct TrainPoint {
  std::size_t workers = 0;
  double epoch_seconds = 0.0;
  double final_loss = 0.0;
  double max_abs_weight_diff = 0.0;  // vs the 1-worker run
  bool weights_bitwise = false;
  bool losses_bitwise = false;
};

struct TrainOutcome {
  core::TrainedPredictor predictor;
  std::vector<double> epoch_losses;
  double seconds = 0.0;
};

TrainOutcome train_once(const data::Dataset& data, std::size_t width,
                        std::size_t epochs, std::size_t workers) {
  TrainOutcome out;
  core::PredictorConfig cfg;
  cfg.hidden_width = width;
  cfg.weight_seed = 72;  // one fixed net shared by every sweep point
  cfg.train.epochs = epochs;
  cfg.train.num_workers = workers;
  cfg.train.on_epoch = [&](const nn::EpochStats& s) {
    out.epoch_losses.push_back(s.mean_loss);
  };
  Stopwatch clock;
  out.predictor = core::train_motion_predictor(data, cfg);
  out.seconds = clock.seconds();
  return out;
}

double max_abs_weight_diff(const nn::Network& a, const nn::Network& b) {
  double m = 0.0;
  for (std::size_t li = 0; li < a.num_layers(); ++li) {
    const linalg::Matrix& wa = a.layer(li).weights();
    const linalg::Matrix& wb = b.layer(li).weights();
    for (std::size_t i = 0; i < wa.size(); ++i) {
      m = std::max(m, std::abs(wa.data()[i] - wb.data()[i]));
    }
    const linalg::Vector& ba = a.layer(li).biases();
    const linalg::Vector& bb = b.layer(li).biases();
    for (std::size_t i = 0; i < ba.size(); ++i) {
      m = std::max(m, std::abs(ba[i] - bb[i]));
    }
  }
  return m;
}

bool losses_identical(const std::vector<double>& a,
                      const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const auto max_workers = static_cast<std::size_t>(
      std::max(1L, bench::env_long("SAFENN_TRAIN_WORKERS", 4)));
  const auto epochs = static_cast<std::size_t>(
      bench::env_long("SAFENN_TRAIN_EPOCHS", smoke ? 2 : 6));
  const auto width = static_cast<std::size_t>(
      bench::env_long("SAFENN_TRAIN_WIDTH", 24));
  const std::size_t timing_reps = smoke ? 1 : 3;

  std::vector<std::size_t> worker_counts;
  for (std::size_t w = 1; w <= max_workers; w *= 2) worker_counts.push_back(w);

  std::printf("# parallel training bench%s: I4x%zu, %zu epochs, workers up "
              "to %zu\n",
              smoke ? " (smoke)" : "", width, epochs, max_workers);

  // --- Dataset generation: every worker count vs the sequential build. ---
  highway::SceneEncoder encoder;
  const highway::BuiltDataset reference_data =
      highway::build_highway_dataset(encoder, dataset_config(smoke, 1));
  bool dataset_match = true;
  std::vector<std::pair<std::size_t, double>> dataset_points;
  {
    Stopwatch seq_clock;
    highway::build_highway_dataset(encoder, dataset_config(smoke, 1));
    dataset_points.emplace_back(1, seq_clock.seconds());
  }
  for (std::size_t w = 2; w <= max_workers; w *= 2) {
    Stopwatch clock;
    const highway::BuiltDataset built = highway::build_highway_dataset(
        encoder, dataset_config(smoke, static_cast<int>(w)));
    const double secs = clock.seconds();
    dataset_points.emplace_back(w, secs);
    const bool same = datasets_identical(reference_data, built);
    dataset_match = dataset_match && same;
    std::printf("dataset workers=%zu  %.3fs  %zu samples  (%s)\n", w, secs,
                built.data.size(), same ? "byte-identical" : "MISMATCH");
  }

  // --- Training: every worker count vs the 1-worker run (the first). ---
  bool training_match = true;
  std::vector<TrainPoint> train_points;
  TrainOutcome reference;
  for (const std::size_t w : worker_counts) {
    TrainOutcome best = train_once(reference_data.data, width, epochs, w);
    double best_seconds = best.seconds;
    for (std::size_t rep = 1; rep < timing_reps; ++rep) {
      const TrainOutcome again =
          train_once(reference_data.data, width, epochs, w);
      best_seconds = std::min(best_seconds, again.seconds);
    }
    if (w == 1) reference = best;

    TrainPoint point;
    point.workers = w;
    point.epoch_seconds = best_seconds / static_cast<double>(epochs);
    point.final_loss = best.predictor.final_loss;
    point.max_abs_weight_diff = max_abs_weight_diff(
        reference.predictor.network, best.predictor.network);
    point.weights_bitwise = point.max_abs_weight_diff == 0.0 &&
                            best.predictor.final_loss ==
                                reference.predictor.final_loss;
    point.losses_bitwise =
        losses_identical(reference.epoch_losses, best.epoch_losses);
    training_match =
        training_match && point.weights_bitwise && point.losses_bitwise;
    std::printf("train workers=%zu  %.3fs/epoch  max|w diff| %.2e  "
                "(weights %s, losses %s)\n",
                w, point.epoch_seconds, point.max_abs_weight_diff,
                point.weights_bitwise ? "bitwise" : "MISMATCH",
                point.losses_bitwise ? "bitwise" : "MISMATCH");
    train_points.push_back(point);
  }

  const bool deterministic = dataset_match && training_match;

  std::ostringstream json;
  json << "{\n  \"bench\": \"training_parallel\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"hidden_width\": " << width << ",\n"
       << "  \"epochs\": " << epochs << ",\n"
       << "  \"samples\": " << reference_data.data.size() << ",\n"
       << "  \"dataset\": {\n    \"match\": "
       << (dataset_match ? "true" : "false") << ",\n    \"points\": [\n";
  for (std::size_t i = 0; i < dataset_points.size(); ++i) {
    json << "      {\"workers\": " << dataset_points[i].first
         << ", \"seconds\": " << dataset_points[i].second << "}"
         << (i + 1 < dataset_points.size() ? ",\n" : "\n");
  }
  json << "    ]\n  },\n  \"training\": {\n"
       << "    \"match\": " << (training_match ? "true" : "false")
       << ",\n    \"points\": [\n";
  for (std::size_t i = 0; i < train_points.size(); ++i) {
    const TrainPoint& p = train_points[i];
    json << "      {\"workers\": " << p.workers
         << ", \"epoch_seconds\": " << p.epoch_seconds
         << ", \"final_loss\": " << p.final_loss
         << ", \"max_abs_weight_diff\": " << p.max_abs_weight_diff
         << ", \"weights_bitwise\": " << (p.weights_bitwise ? "true" : "false")
         << ", \"losses_bitwise\": " << (p.losses_bitwise ? "true" : "false")
         << "}" << (i + 1 < train_points.size() ? ",\n" : "\n");
  }
  json << "    ]\n  },\n  \"deterministic\": "
       << (deterministic ? "true" : "false") << "\n}\n";

  const char* out_path = std::getenv("SAFENN_TRAIN_JSON");
  const std::string path =
      out_path && *out_path ? out_path : "BENCH_train.json";
  std::ofstream(path) << json.str();
  std::printf("\n%s", json.str().c_str());
  std::printf("# wrote %s\n", path.c_str());
  return deterministic ? 0 : 1;
}
