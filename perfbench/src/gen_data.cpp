// Regenerates the benchmark's committed inputs under perfbench/data.
//
//   perfbench_gen <data_dir> [fleet|table2|settle|all]
//
// Writes:
//   scenes.pk             traffic scene pool (decimal text, packed)
//   fleet/alpha-v1.safennz, fleet/beta-v1.safennz
//                         the serving fleet: I4x96 predictors; beta
//                         carries a quantized payload
//   fleet_battery.txt     the fleet's small property battery, re-verified
//                         on every model update
//   nets/I4x<N>.net       Table II networks for the verification battery
//   battery.txt           Table II battery: regions, thresholds and each
//                         property's true verdict
//   battery_short.txt     its short form (the other workloads' verify
//                         phase)
//
// Thresholds are placed from long pre-passes. Each query is designed to
// reach a given verdict at the battery's deadline (decided, or left
// undecided), and that design is confirmed by racing the portfolio at the
// deadline several times before the query is written. What the file
// stores is the truth: the verdict of a decided query, and for a query
// left undecided the verdict of a long race without the deadline ("open"
// when even that does not settle it). `settle` re-runs that long race on
// the committed batteries' open queries only. Runs take minutes; a
// benchmark run never calls this.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "battery.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "highway/dataset_builder.hpp"
#include "highway/safety_rules.hpp"
#include "nn/serialize.hpp"
#include "registry/registry.hpp"
#include "verify/input_split.hpp"
#include "verify/portfolio.hpp"
#include "verify/symbolic.hpp"

using namespace safenn;
namespace fs = std::filesystem;

namespace {

/// The fleet's hidden width. The serve workloads need their single
/// generator thread (the thread budget leaves one) to push 2 workers
/// well past saturation. On a 4-vCPU host an I4x24 fleet's knee sits at
/// ~160k req/s, next to the ~200k sends/s one generator thread reaches,
/// so serve_max_rps would measure the generator; I4x96 puts the knee at
/// ~70-140k req/s. See perfbench/README.md, "Fleet width".
constexpr std::size_t kFleetWidth = 96;
/// Deadline of the long race that settles a query's truth.
constexpr double kSettleSeconds = 300.0;
constexpr int kFleetFracBits = 8;
constexpr double kFleetThreshold = -0.2;
constexpr std::size_t kScenePool = 512;

verify::InputRegion envelope(const verify::InputRegion& full,
                             double fraction) {
  verify::InputRegion region = full;
  for (auto& iv : region.box) {
    const double mid = 0.5 * (iv.lo + iv.hi);
    const double half = 0.5 * (iv.hi - iv.lo) * fraction;
    iv = verify::Interval{mid - half, mid + half};
  }
  return region;
}

int lateral_output(const nn::MdnHead& head, std::size_t k) {
  return static_cast<int>(head.mean_index(k, highway::kActionLateral));
}

double root_bound(const nn::Network& net, const verify::InputRegion& region,
                  int output) {
  const verify::SymbolicPropagator sym(net);
  return verify::SymbolicPropagator::objective_interval(
             sym.propagate(region.box), region.box, {{output, 1.0}})
      .hi;
}

verify::InputSplitResult converge(const nn::Network& net,
                                  const verify::InputRegion& region,
                                  int output, double seconds) {
  verify::InputSplitOptions o;
  o.gap_tol = 1e-4;
  o.time_limit_seconds = seconds;
  o.num_workers = 3;
  verify::OutputExpr expr;
  expr.terms = {{output, 1.0}};
  return verify::InputSplitVerifier(o).maximize(net, region, expr);
}

/// Adds `q` after checking that the portfolio reaches `want` at the
/// battery's deadline, every time. A decided `want` is the query's truth;
/// an undecided one leaves the truth open for settle_battery().
void add_query(perfbench::Battery& b, perfbench::BatteryQuery q,
               const nn::Network& net, verify::Verdict want,
               const std::vector<int>& workers) {
  const verify::SafetyProperty prop = perfbench::make_property(b, q);
  for (const int w : workers) {
    verify::PortfolioOptions po;
    po.time_limit_seconds = b.deadline_seconds;
    po.num_workers = w;
    for (int r = 0; r < 3; ++r) {
      const verify::PortfolioResult res =
          verify::PortfolioVerifier(po).prove(net, prop);
      std::printf("    %-26s w%d rep %d: %-8s by %-13s in %6.3fs "
                  "(bound %.5f, thr %.5f)\n",
                  q.name.c_str(), w, r, perfbench::verdict_name(res.verdict),
                  res.engine_name.c_str(), res.seconds, res.upper_bound,
                  q.threshold);
      std::fflush(stdout);
      if (res.verdict != want) {
        throw std::runtime_error(q.name + ": verdict " +
                                 perfbench::verdict_name(res.verdict) +
                                 " instead of " +
                                 perfbench::verdict_name(want));
      }
    }
  }
  q.truth = want;
  b.queries.push_back(std::move(q));
}

/// Races every open query of the battery file at `path` (networks from
/// dir/nets) without the battery's deadline, and stores the verdict it
/// settles on as the query's truth; a query still undecided stays open.
void settle_battery(const std::string& dir, const std::string& path) {
  perfbench::Battery b = perfbench::load_battery(path);
  for (perfbench::BatteryQuery& q : b.queries) {
    if (q.truth != verify::Verdict::kUnknown) continue;
    const nn::Network net =
        nn::load_network_file(dir + "/nets/" + q.net + ".net");
    verify::PortfolioOptions po;
    po.time_limit_seconds = kSettleSeconds;
    po.num_workers = 3;
    const verify::PortfolioResult res =
        verify::PortfolioVerifier(po).prove(net, perfbench::make_property(b, q));
    std::printf("settle %-26s %-8s by %-13s in %7.1fs (bound %.5f, thr "
                "%.5f)\n",
                q.name.c_str(), perfbench::verdict_name(res.verdict),
                res.engine_name.c_str(), res.seconds, res.upper_bound,
                q.threshold);
    std::fflush(stdout);
    q.truth = res.verdict;
  }
  perfbench::save_battery(path, b);
}

/// The fleet battery, re-verified on every update cycle: per model, an
/// envelope query the root pass proves and one the warm-start sweep
/// violates. (Full-region queries on the I4x96 fleet spend seconds in
/// the MILP encoding whatever the deadline, so they stay out of a
/// per-update check.)
void write_fleet_battery(const std::string& dir,
                         const verify::InputRegion& full) {
  const registry::ModelRegistry reg(dir + "/fleet");
  perfbench::Battery b;
  b.deadline_seconds = 0.25;
  b.regions["env02"] = envelope(full, 0.02);
  for (const std::string id : {"alpha", "beta"}) {
    const registry::ModelArtifact a = reg.load(id + "-v1");
    const int out = lateral_output(a.head, 2);
    const double env_hi = root_bound(a.network, b.regions["env02"], out);
    std::printf("fleet %s: env root %.4f\n", id.c_str(), env_hi);
    add_query(b, {id + "/env-proved", id, "env02", out, env_hi + 0.25,
                  verify::Verdict::kUnknown},
              a.network, verify::Verdict::kProved, {3, 1});
    add_query(b, {id + "/env-violated", id, "env02", out, env_hi - 2.0,
                  verify::Verdict::kUnknown},
              a.network, verify::Verdict::kViolated, {3, 1});
  }
  perfbench::save_battery(dir + "/fleet_battery.txt", b);
}

void write_table2(const std::string& dir, const data::Dataset& data,
                  const verify::InputRegion& full);

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: perfbench_gen <data_dir> [fleet|table2|settle|all]\n");
    return 2;
  }
  set_log_level(LogLevel::kError);
  const std::string dir = argv[1];
  const std::string stage = argc == 3 ? argv[2] : "all";
  if (stage == "settle") {
    settle_battery(dir, dir + "/battery.txt");
    settle_battery(dir, dir + "/battery_short.txt");
    return 0;
  }
  fs::create_directories(dir + "/nets");
  fs::create_directories(dir + "/fleet");

  // The standard simulator dataset (the repository benches' seed-7 set).
  highway::SceneEncoder encoder;
  highway::DatasetBuildConfig dcfg;
  dcfg.sample_steps = 120;
  dcfg.warmup_steps = 30;
  dcfg.seed = 7;
  const highway::BuiltDataset built =
      highway::build_highway_dataset(encoder, dcfg);
  const data::Dataset& data = built.data;
  std::printf("dataset: %zu samples\n", data.size());

  // ---- Scene pool: a seeded sample of dataset scenes.
  std::vector<linalg::Vector> scenes;
  {
    Rng rng(2024);
    for (std::size_t i = 0; i < kScenePool; ++i) {
      // Rounded to float precision: the pool is committed as short
      // decimal text that parses back to exactly these doubles.
      linalg::Vector x = data.input(rng.uniform_index(data.size()));
      for (std::size_t j = 0; j < x.size(); ++j) {
        x[j] = static_cast<double>(static_cast<float>(x[j]));
      }
      scenes.push_back(std::move(x));
    }
    perfbench::save_scenes(dir + "/scenes.pk", scenes);
  }
  double input_limit = 0.0;
  for (const auto& s : scenes) {
    for (std::size_t j = 0; j < s.size(); ++j) {
      input_limit = std::max(input_limit, std::abs(s[j]));
    }
  }
  input_limit *= 1.05;

  const verify::Box domain = highway::data_domain_box(data, encoder);
  const verify::InputRegion full =
      highway::make_vehicle_on_left_region(encoder, domain);

  // ---- Fleet: two I4x96 predictors; beta also carries its exact
  // fixed-point twin.
  if (stage == "fleet" || stage == "all") {
    registry::MonitorConfig monitor;
    monitor.region = full;
    monitor.lateral_threshold = kFleetThreshold;
    for (const auto& [id, seed] :
         std::vector<std::pair<std::string, std::uint64_t>>{{"alpha", 61},
                                                            {"beta", 62}}) {
      core::PredictorConfig pc;
      pc.hidden_width = kFleetWidth;
      pc.train.epochs = 6;
      pc.weight_seed = seed;
      const core::TrainedPredictor p = core::train_motion_predictor(data, pc);
      registry::ModelArtifact a =
          registry::make_artifact(id + "-v1", p, monitor);
      if (id == "beta") {
        registry::attach_quantized(a, kFleetFracBits, input_limit);
      }
      const std::string path = registry::ModelRegistry(dir + "/fleet")
                                   .path_for(a.version,
                                             registry::ArtifactEncoding::kPacked);
      fs::remove(path);
      registry::ModelRegistry(dir + "/fleet")
          .save(a, registry::ArtifactEncoding::kPacked);
      std::printf("fleet %s: loss %.4f\n", a.version.c_str(), p.final_loss);
    }
    write_fleet_battery(dir, full);
  }
  if (stage == "table2" || stage == "all") write_table2(dir, data, full);
  return 0;
}

namespace {

verify::MaximizeResult milp_max(const nn::Network& net,
                                const verify::InputRegion& region, int out) {
  verify::VerifierOptions vo;
  vo.time_limit_seconds = 60.0;
  verify::OutputExpr expr;
  expr.terms = {{out, 1.0}};
  return verify::MilpVerifier(vo).maximize(net, region, expr);
}

/// The Table II battery (deadline 1.5 s) and its short form (deadline
/// 1.0 s, the verify phase of the other workloads). Full-region queries
/// at small widths, local-envelope queries at larger ones; thresholds
/// with slack, tight thresholds, violated thresholds, slack thresholds
/// that only close at the deadline (no engine stops when its bound
/// clears the threshold), and queries left open.
void write_table2(const std::string& dir, const data::Dataset& data,
                  const verify::InputRegion& full) {
  std::map<std::size_t, nn::Network> nets;
  for (const std::size_t width : {4, 6, 8, 10, 12}) {
    core::PredictorConfig pc;
    pc.hidden_width = width;
    pc.train.epochs = 10;
    pc.weight_seed = 40 + width;  // one fixed net per width
    const core::TrainedPredictor p = core::train_motion_predictor(data, pc);
    nn::save_network_file(dir + "/nets/I4x" + std::to_string(width) + ".net",
                          p.network);
    nets.emplace(width, p.network);
  }
  const nn::MdnHead head(3, highway::kActionDims);
  const int out = lateral_output(head, 0);

  perfbench::Battery b, s;
  b.deadline_seconds = 1.5;
  s.deadline_seconds = 1.0;
  for (const double f : {0.10, 0.20, 0.35, 0.50}) {
    char name[16];
    std::snprintf(name, sizeof(name), "env%02d",
                  static_cast<int>(std::lround(f * 100)));
    b.regions[name] = envelope(full, f);
  }
  b.regions["full"] = full;
  s.regions = b.regions;
  const auto q = [&](perfbench::Battery& into, const std::string& name,
                     std::size_t width, const std::string& region,
                     double threshold, verify::Verdict want) {
    add_query(into,
              {"I4x" + std::to_string(width) + "/" + name,
               "I4x" + std::to_string(width), region, out, threshold,
               verify::Verdict::kUnknown},
              nets.at(width), want, {3});
  };
  const auto report = [](const char* what, double lo, double hi) {
    std::printf("%s: [%.5f, %.5f]\n", what, lo, hi);
    std::fflush(stdout);
  };
  using verify::Verdict;

  {  // I4x4, full region: root, slack, tight, violated.
    const double root = root_bound(nets.at(4), full, out);
    const verify::MaximizeResult ex = milp_max(nets.at(4), full, out);
    report("I4x4/full exact", ex.max_value, ex.upper_bound);
    q(b, "full-root", 4, "full", root + 0.5, Verdict::kProved);
    q(b, "full-slack", 4, "full", ex.upper_bound + 0.3 * (root - ex.upper_bound),
      Verdict::kProved);
    q(b, "full-tight", 4, "full", ex.upper_bound + 0.005, Verdict::kProved);
    q(b, "full-violated", 4, "full", ex.max_value - 0.05, Verdict::kViolated);
    q(s, "full-root", 4, "full", root + 0.5, Verdict::kProved);
    q(s, "full-slack", 4, "full",
      ex.upper_bound + 0.3 * (root - ex.upper_bound), Verdict::kProved);
    q(s, "full-tight", 4, "full", ex.upper_bound + 0.005, Verdict::kProved);
  }
  {  // I4x6, full region: violated.
    const verify::InputSplitResult c = converge(nets.at(6), full, out, 5.0);
    report("I4x6/full split", c.max_value, c.upper_bound);
    q(b, "full-violated", 6, "full", c.max_value - 0.02, Verdict::kViolated);
    q(s, "full-violated", 6, "full", c.max_value - 0.02, Verdict::kViolated);
  }
  {  // I4x8, small envelope: the root pass closes it.
    const double root = root_bound(nets.at(8), b.regions["env10"], out);
    q(b, "env10-root", 8, "env10", root + 0.1, Verdict::kProved);
  }
  {  // I4x10, 20% envelope: slack and tight.
    const double root = root_bound(nets.at(10), b.regions["env20"], out);
    const verify::MaximizeResult ex =
        milp_max(nets.at(10), b.regions["env20"], out);
    report("I4x10/env20 exact", ex.max_value, ex.upper_bound);
    q(b, "env20-slack", 10, "env20",
      ex.upper_bound + 0.3 * (root - ex.upper_bound), Verdict::kProved);
    q(b, "env20-tight", 10, "env20", ex.upper_bound + 0.005, Verdict::kProved);
  }
  {  // I4x12, 20% envelope: tight and violated.
    const verify::MaximizeResult ex =
        milp_max(nets.at(12), b.regions["env20"], out);
    report("I4x12/env20 exact", ex.max_value, ex.upper_bound);
    q(b, "env20-tight", 12, "env20", ex.upper_bound + 0.005, Verdict::kProved);
    q(b, "env20-violated", 12, "env20", ex.max_value - 0.05,
      Verdict::kViolated);
  }
  // Slack thresholds that the input-split bound clears well before the
  // deadline, while no engine closes its gap: proved only at the
  // deadline, from the merged bound.
  for (const auto& [width, region] :
       std::vector<std::pair<std::size_t, std::string>>{{12, "env35"},
                                                        {10, "env50"}}) {
    const double root = root_bound(nets.at(width), b.regions[region], out);
    const verify::InputSplitResult c =
        converge(nets.at(width), b.regions[region], out, 4.0);
    report(("I4x" + std::to_string(width) + "/" + region + " split").c_str(),
           c.max_value, c.upper_bound);
    q(b, region + "-late", width, region,
      c.upper_bound + 0.2 * (root - c.upper_bound), Verdict::kProved);
  }
  {  // Open at the deadline: a full-region query, and an envelope one for
     // the short form.
    const verify::InputSplitResult c = converge(nets.at(10), full, out, 10.0);
    report("I4x10/full split", c.max_value, c.upper_bound);
    q(b, "full-open", 10, "full", 0.5 * (c.max_value + c.upper_bound),
      Verdict::kUnknown);
    const verify::InputSplitResult e =
        converge(nets.at(12), b.regions["env50"], out, 4.0);
    report("I4x12/env50 split", e.max_value, e.upper_bound);
    q(s, "env50-open", 12, "env50",
      e.max_value + 0.25 * (e.upper_bound - e.max_value), Verdict::kUnknown);
  }
  perfbench::save_battery(dir + "/battery.txt", b);
  perfbench::save_battery(dir + "/battery_short.txt", s);
  settle_battery(dir, dir + "/battery.txt");
  settle_battery(dir, dir + "/battery_short.txt");
}

}  // namespace
