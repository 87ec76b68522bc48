// The three measured phases every workload is built from, and the run
// context they report into.
//
//   serve   the fleet under open-loop traffic: a light rung, the
//           reference rung, a search of the offered-rate ladder for the
//           highest rate that meets the latency limit, and an overload
//           rung past saturation.
//   verify  a property battery raced cold through PortfolioVerifier.
//   update  retrain -> publish -> re-verify -> hot-swap cycles while
//           traffic flows into the fleet.
//
// A workload runs its main phase first and the other two after it (the
// verify and update phases in a shorter form), so every end-to-end
// metric is measured on every workload (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "battery.hpp"
#include "fleet.hpp"
#include "nn/network.hpp"
#include "registry/registry.hpp"
#include "serve/multi_model.hpp"
#include "trace.hpp"
#include "verify/cache.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string data_dir = "perfbench/data";
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

/// Everything a run reports: metrics (end-to-end and per-layer), output
/// checks, operation counts, and free-form record fields.
class Results {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has_metric(const std::string& name) const;
  double value(const std::string& name) const;

  /// An output check: failing it makes the run incorrect.
  void check(bool ok, const std::string& what);
  bool correct() const { return check_failures_.empty(); }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }

  /// Operations attempted and how many of them failed or were refused.
  void attempted(std::size_t n, std::size_t failed);
  std::size_t attempted_total() const { return attempted_; }
  std::size_t failed_total() const { return failed_; }

  /// A record field, already rendered as a JSON value.
  void record(const std::string& key, const std::string& json_value);
  const std::map<std::string, std::string>& records() const {
    return records_;
  }

  struct Metric {
    double value;
    std::string unit;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> check_failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::string> records_;
};

/// The Table II battery's networks, keyed by file stem.
using NetworkSet = std::map<std::string, safenn::nn::Network>;

/// A verification result as the cache must replay it, bit for bit.
struct StoredVerdict {
  safenn::verify::Verdict verdict = safenn::verify::Verdict::kUnknown;
  double upper_bound = 0.0;
  bool has_value = false;
  double max_value = 0.0;
  std::string engine;
};

/// Shared state of one run.
struct RunContext {
  Options options;
  Fleet fleet;
  Battery fleet_battery;   // small properties on the fleet's models
  Battery table2_battery;  // only loaded by verify-battery
  NetworkSet table2_nets;
  std::unique_ptr<safenn::serve::MultiModelServer> server;
  std::unique_ptr<ReplayChecker> replay;
  VersionTable versions;   // generator-thread version labels
  double deadline_s = 0.0; // the fleet's per-request deadline
  Tracer tracer;           // main-thread spans
  Tracer update_tracer;    // update-thread spans
  Results results;
  std::uint64_t input_hash = 0;  // FNV over every generated input
  std::uint64_t request_ids = 0; // span ids of sampled request trees

  // Update cycles: the publish registry, the verification cache, and the
  // verdicts every cache entry must replay (by cache key).
  std::unique_ptr<safenn::registry::ModelRegistry> registry;
  std::unique_ptr<safenn::verify::VerificationCache> cache;
  std::map<std::string, StoredVerdict> stored;
  std::uint64_t cycles = 0;

  explicit RunContext(Options o, double epoch)
      : options(std::move(o)),
        tracer(options.trace, epoch),
        update_tracer(options.trace, epoch) {}

  void mix_input_hash(std::uint64_t h);
  /// Spans recorded live (begin/end), as opposed to rebuilt from records.
  std::size_t live_spans() const;
  /// Both tracers' spans, the update thread's rebased after the main's.
  std::vector<Span> all_spans() const;
};

/// Setup step shared by every workload: a fresh publish registry and a
/// verification cache holding the fleet battery's verdicts for the
/// committed models, so update cycles hit on unchanged models.
void warm_update_cache(RunContext& ctx);

/// Phase sizes, in seconds of offered traffic.
struct ServeSizes {
  double light_s;     // light-load rung (mean batch ~1)
  double ref_s;       // reference rung
  double probe_s;     // each ladder-search rung
  double overload_s;  // the rung past saturation
};

/// Offered rates (requests per second).
inline constexpr double kLightRps = 2000.0;
/// A fifth to a ninth of the fleet's capacity on a 4-vCPU host, so a
/// host that loses half its CPU to other tenants still serves it without
/// queueing.
inline constexpr double kRefRps = 15000.0;

void serve_phase(RunContext& ctx, const ServeSizes& sizes);

/// Races `battery` cold: 3 workers, no cache, the battery's own
/// deadline per query. `nets` resolves the queries' network keys.
void verify_phase(RunContext& ctx, const Battery& battery,
                  const std::map<std::string, const safenn::nn::Network*>&
                      nets);

/// `num_cycles` update cycles under live traffic at kRefRps. `primary`
/// marks the update-under-load workload, whose live-traffic latency is
/// the serve_p50/p99 source.
void update_phase(RunContext& ctx, int num_cycles, bool primary);

/// Traced run only: single-threaded replays of the serving hot path and
/// the kernels at the fleet's shapes (per-layer metrics).
void serving_layer_pass(RunContext& ctx, double mean_batch);

/// Traced run only: deterministic work counts over a battery.
void verify_count_pass(RunContext& ctx, const Battery& battery,
                       const std::map<std::string, const safenn::nn::Network*>&
                           nets);

/// Folds a traffic run into the replay checker and the run's counts.
void account_traffic(RunContext& ctx, const TrafficRun& run);

/// JSON string literal.
std::string json_str(const std::string& s);
/// JSON number (finite; non-finite values render as null).
std::string json_num(double v);

}  // namespace perfbench
