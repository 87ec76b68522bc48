// The serving side of the benchmark: the committed two-model fleet, the
// open-loop traffic generator, and the replay check that every response
// is what a sequential shield replay of the same scene produces.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/monitor.hpp"
#include "nn/qengine.hpp"
#include "registry/artifact.hpp"
#include "serve/multi_model.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Model ids in routing order; traffic index 0 is alpha, 1 is beta.
inline const char* const kModelIds[2] = {"alpha", "beta"};

struct Fleet {
  std::vector<safenn::linalg::Vector> scenes;
  safenn::registry::ModelArtifact alpha;  // float
  safenn::registry::ModelArtifact beta;   // carries a quantized payload
};

/// Loads the committed fleet (data_dir/fleet, through ModelRegistry) and
/// the scene pool (data_dir/scenes.pk).
Fleet load_fleet(const std::string& data_dir);

/// The fleet's worker count and largest batch (see fleet_config).
inline constexpr std::size_t kFleetWorkers = 2;
inline constexpr std::size_t kFleetMaxBatch = 16;

/// The fleet's server settings: 2 workers, max batch 16, degrade at the
/// watermark, a fixed per-request deadline. The quantized backend is
/// requested fleet-wide: beta's payload passes the bitwise gate and
/// serves fixed point; alpha has no payload and serves float reference.
safenn::serve::MultiModelConfig fleet_config(double deadline_seconds);

/// Interns version labels to small ids (one per recording thread).
class VersionTable {
 public:
  std::uint16_t intern(const std::string& version);
  const std::string& name(std::uint16_t id) const { return names_[id]; }

 private:
  std::map<std::string, std::uint16_t> ids_;
  std::vector<std::string> names_;
};

/// One request as the generator saw it. Times are absolute
/// now_seconds() values.
struct RequestRecord {
  double scheduled = 0.0;   // when it was due to be sent
  double sent_begin = 0.0;  // submit() entered
  double sent_end = 0.0;    // submit() returned
  double done = 0.0;        // response observed
  float queue_s = 0.0f;     // ServeResponse::queue_seconds
  float infer_s = 0.0f;     // ServeResponse::infer_seconds
  std::uint32_t scene = 0;
  std::uint16_t version = 0;
  std::uint8_t model = 0;   // index into kModelIds (requested)
  std::uint8_t outcome = 0; // serve::ServeOutcome
  std::uint8_t backend = 0; // linalg::KernelBackend
  bool tag_ok = false;      // response model id == requested model id
  bool broken = false;      // the future threw instead of answering
  bool assumption_hit = false;
  bool intervened = false;
  double action[2] = {0.0, 0.0};

  bool failed() const;      // rejected, degraded (shed included) or broken
  /// Scheduled send -> observed response, ms. A failed request misses the
  /// limit: it is charged the limit or its observed time, whichever is
  /// later.
  double charged_ms(double limit_ms) const;
};

/// Longest a generator sleep lasts while responses are pending, so a
/// response that answers before the oldest unanswered one is observed
/// within it. (Linux's default timer slack is 50 us: a shorter sleep
/// would not wake sooner.)
inline constexpr double kPollSeconds = 50e-6;

/// Latency of a traffic run over all its requests: charged_ms() of
/// every request (failures at the limit or later), summarized with the
/// nearest-rank p50 and p99 and the highest percentile that has at least
/// ten samples beyond it.
LatencySummary traffic_latency(const std::vector<RequestRecord>& records,
                               double limit_ms);

/// A seeded open-loop schedule: Poisson arrivals, scene order, and a
/// 3:1 alpha:beta routing skew.
struct TrafficPlan {
  std::vector<double> offsets;  // seconds from the phase start
  std::vector<std::uint32_t> scenes;
  std::vector<std::uint8_t> models;
};
TrafficPlan make_traffic(std::uint64_t seed, double rate, double seconds,
                         std::size_t scene_pool);

/// FNV-1a over a plan's offsets (bit patterns), scenes and models.
std::uint64_t plan_hash(const TrafficPlan& plan);

struct TrafficRun {
  std::vector<RequestRecord> records;
  std::vector<double> depth_at_send;  // fleet backlog right after each send
  double start = 0.0;  // phase epoch (absolute)
  double end = 0.0;    // last response observed
  double cpu_s = 0.0;  // process CPU over [start, end]
};

/// Runs `plan` against `server` from the calling thread. The generator
/// sleeps until each send time (no busy wait) and meanwhile observes
/// completions in any order: each sweep polls every pending response
/// that can have answered (see kPollSeconds), so a response is timed
/// when it is ready, not when earlier sends have answered. `stop`
/// (optional) is asked before each send with the elapsed seconds and
/// ends the plan early when true.
/// The records carry every timestamp request_spans() needs, so tracing
/// adds nothing to this loop.
TrafficRun run_traffic(safenn::serve::MultiModelServer& server,
                       const Fleet& fleet, const TrafficPlan& plan,
                       VersionTable& versions,
                       const std::function<bool(double)>& stop = {});

/// A request's span tree, rebuilt from its record (times relative to
/// `epoch`): the request from its scheduled send to its observed
/// response, with children for the generator's lateness, the submit
/// call, and the server-reported queue wait and inference time. The
/// request's self time is what none of them covers: batch siblings,
/// fulfilment and observation.
std::vector<Span> request_spans(const RequestRecord& rec, double epoch);

/// Outcome of the serving output checks for one server lifetime.
struct ReplayReport {
  std::size_t responses = 0;
  std::size_t pairs = 0;              // (model, version) pairs seen
  std::size_t pair_mismatches = 0;    // counters != sequential replay
  std::size_t action_mismatches = 0;  // response bits != replay bits
  std::size_t untagged = 0;           // wrong model/version/backend tag
  std::size_t broken = 0;             // broken promises
  std::uint64_t mixed_batches = 0;
  bool ok() const {
    return pair_mismatches == 0 && action_mismatches == 0 && untagged == 0 &&
           broken == 0 && mixed_batches == 0 && pairs > 0;
  }
};

/// Checks every response of one server lifetime against a sequential
/// SafetyMonitor replay of its scene on the version that answered, and
/// each (model, version)'s counters against the replay's. Replay
/// decisions are memoized per (version, scene): the guard is a pure
/// function of both, so the tallies equal a full sequential replay.
class ReplayChecker {
 public:
  explicit ReplayChecker(const Fleet& fleet);

  /// Registers a version the server may answer with (before folding
  /// records that name it).
  void add_artifact(const safenn::registry::ModelArtifact& artifact);

  /// Checks and tallies a batch of records (outside any timed window).
  void fold(const std::vector<RequestRecord>& records,
            const VersionTable& versions);

  /// Compares tallies with the server's per-version slices.
  ReplayReport finish(safenn::serve::MetricsRegistry& metrics) const;

 private:
  /// A version's arithmetic is fixed by its artifact: one with a
  /// quantized payload serves fixed point (qengine set), others float
  /// reference.
  struct Replayer {
    safenn::core::TrainedPredictor predictor;
    std::unique_ptr<safenn::core::SafetyMonitor> monitor;
    std::unique_ptr<safenn::nn::QuantizedEngine> qengine;
  };
  struct Decision {
    double action[2];
    bool hit;
    bool intervened;
  };
  struct Tally {
    std::uint64_t answered = 0;  // non-rejected responses
    std::uint64_t hits = 0;
    std::uint64_t interventions = 0;
  };
  const Decision& decide(const std::string& version, std::uint32_t scene);

  const Fleet& fleet_;
  std::map<std::string, Replayer> replayers_;
  std::unordered_map<std::uint64_t, Decision> memo_;
  std::map<std::string, std::uint16_t> memo_ids_;
  std::map<std::string, Tally> tallies_;  // by version label
  ReplayReport report_;
};

}  // namespace perfbench
