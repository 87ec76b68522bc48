// safenn end-to-end benchmark: the workload runner.
//
//   perfbench --workload <serve-steady|verify-battery|update-under-load>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--data <dir>] [--work <dir>] [--commit <id>]
//
// Builds the workload's inputs from the seed and the committed data,
// sets up several times (setup_s is the median), runs the workload's
// phases through the library's public API, checks every output, and
// prints each metric by name with its unit. The last stdout line is the
// result object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "host.hpp"
#include "nn/serialize.hpp"
#include "phases.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 3;
/// The fleet's per-request deadline and the latency limit of
/// serve_max_rps: one 20 Hz control period.
constexpr double kFleetDeadlineSeconds = 0.050;

// The metric sets each mode reports (BENCHMARK.json names the same).
// The open-loop latency and capacity figures (serve_p50_ms, serve_p99_ms,
// serve_max_rps, serve_fail_frac) are per-layer metrics, which carry no
// bound: on a shared 4-vCPU host they move by 2-10x with the hypervisor's
// steal and the host's speed (README, "Noise on a shared host"), so no
// bound on them holds between two sets of runs of the same code.
const char* const kEndToEnd[] = {
    "setup_s",          "peak_rss_mb",  "serve_cpu_us_per_req",
    "verify_s",         "verify_query_p50_s",
    "verify_undecided", "verify_cpu_s", "update_s"};
const char* const kPerLayer[] = {
    "serve_p50_ms", "serve_p99_ms", "serve_max_rps", "serve_fail_frac",
    "serve.submit_us.p50", "serve.submit_us.p99", "serve.queue_ms.p50",
    "serve.queue_ms.p99", "serve.infer_us.p50", "serve.batch_mean",
    "serve.rejected", "serve.shed", "serve.degraded", "serve.reload_ms",
    "core.pack_us", "core.guard_us", "nn.forward_us.b1", "nn.forward_us.b16",
    "nn.qforward_us.b16", "nn.train_epoch_s", "nn.train_samples_per_s",
    "linalg.gemm_gflops", "linalg.qgemm_gops", "linalg.forward_bytes.b16",
    "highway.build_s", "registry.publish_ms", "registry.load_ms",
    "verify.engine_s.root", "verify.engine_s.split", "verify.engine_s.milp",
    "verify.engine_s.sat", "verify.wins.root", "verify.wins.split",
    "verify.wins.milp", "verify.wins.sat", "verify.useful_frac",
    "verify.boxes", "verify.pruned_frac", "verify.cache_hit_frac",
    "verify.cache_hit_ms", "lp.iterations", "lp.iters_per_s", "milp.nodes",
    "milp.nodes_per_s", "sat.probes", "trace.overhead_frac"};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve-steady|verify-battery|update-under-load> --seed <n> "
               "--seconds <s> --trace <0|1> [--data dir] [--work dir] "
               "[--commit id]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--data") {
      o.data_dir = v;
    } else if (a == "--work") {
      o.work_dir = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "serve-steady" && o.workload != "verify-battery" &&
      o.workload != "update-under-load") {
    usage(("unknown workload " + o.workload).c_str());
  }
  if (!(o.seconds >= 1.0 && o.seconds <= 600.0)) usage("bad --seconds");
  return o;
}

/// One set-up: committed inputs, the fleet behind a fresh server (backend
/// gates run in its constructor), a short warm-up, and — for the update
/// cycles every workload runs — a verification cache holding the fleet
/// battery's verdicts for the committed models.
void setup_once(RunContext& ctx) {
  const Options& o = ctx.options;
  ctx.server.reset();
  ctx.replay.reset();
  ctx.versions = VersionTable();
  ctx.fleet = load_fleet(o.data_dir);
  ctx.fleet_battery = load_battery(o.data_dir + "/fleet_battery.txt");
  // The Table II battery; its short form for the workloads whose main
  // phase is not verification.
  ctx.table2_battery = load_battery(
      o.data_dir + (o.workload == "verify-battery" ? "/battery.txt"
                                                   : "/battery_short.txt"));
  ctx.table2_nets.clear();
  for (const BatteryQuery& q : ctx.table2_battery.queries) {
    if (ctx.table2_nets.count(q.net) == 0) {
      ctx.table2_nets.emplace(q.net, safenn::nn::load_network_file(
                                         o.data_dir + "/nets/" + q.net +
                                         ".net"));
    }
  }
  ctx.replay = std::make_unique<ReplayChecker>(ctx.fleet);
  ctx.server = std::make_unique<safenn::serve::MultiModelServer>(
      std::vector<safenn::serve::ModelEntry>{{kModelIds[0], ctx.fleet.alpha},
                                             {kModelIds[1], ctx.fleet.beta}},
      fleet_config(ctx.deadline_s));
  // Warm-up: fill caches and start the workers' batching rhythm.
  const TrafficPlan warm = make_traffic(derive_seed(o.seed, 7), kRefRps,
                                        0.25, ctx.fleet.scenes.size());
  const TrafficRun run =
      run_traffic(*ctx.server, ctx.fleet, warm, ctx.versions);
  account_traffic(ctx, run);
  warm_update_cache(ctx);
}

/// Runs the workload's main phase, then the other two. peak_rss_mb is
/// read when the main phase ends: the other phases only fill in the
/// result line's other metrics and must not set it.
void workload(RunContext& ctx) {
  const double scale = ctx.options.seconds / 20.0;
  // Every workload runs the same serve phase: its reference rung is the
  // source of serve_cpu_us_per_req and serve_p50/p99_ms (a 6 s rung:
  // 90 000 requests, 900 beyond the p99); the traced run adds the
  // overload rung (serve_fail_frac) and the ladder scan (serve_max_rps).
  // Update cycles vary by a third within a run, so update_s is a median
  // over 12 of them in every workload.
  const ServeSizes serve{0.5 * scale, 6.0 * scale, 0.5 * scale, 2.0 * scale};
  const int cycles = std::max(3, static_cast<int>(12 * scale + 0.5));
  std::map<std::string, const safenn::nn::Network*> nets;
  for (const auto& [k, net] : ctx.table2_nets) nets[k] = &net;
  const std::string& w = ctx.options.workload;
  const auto main_done = [&] {
    ctx.results.metric("peak_rss_mb", peak_rss_mb(), "MB");
  };
  if (w == "serve-steady") {
    serve_phase(ctx, serve);
    main_done();
    verify_phase(ctx, ctx.table2_battery, nets);
    update_phase(ctx, cycles, /*primary=*/false);
  } else if (w == "verify-battery") {
    verify_phase(ctx, ctx.table2_battery, nets);
    main_done();
    serve_phase(ctx, serve);
    update_phase(ctx, cycles, /*primary=*/false);
  } else {
    update_phase(ctx, cycles, /*primary=*/true);
    main_done();
    serve_phase(ctx, serve);
    verify_phase(ctx, ctx.table2_battery, nets);
  }
  if (ctx.options.trace) {
    serving_layer_pass(ctx, ctx.results.value("serve.batch_mean"));
    verify_count_pass(ctx, ctx.table2_battery, nets);
  }
}

/// Estimated cost of the live span recorder: time one begin/end pair on
/// a throwaway tracer and scale by the spans the run recorded live.
double tracing_overhead_frac(const RunContext& ctx, double measured_s,
                             std::size_t live_spans) {
  Tracer probe(true, ctx.tracer.epoch());
  const int reps = 20000;
  const double t0 = now_seconds();
  for (int i = 0; i < reps; ++i) probe.end(probe.begin("x", -1, 0));
  const double per_span = (now_seconds() - t0) / reps;
  return measured_s <= 0.0
             ? 0.0
             : per_span * static_cast<double>(live_spans) / measured_s;
}

}  // namespace

int run_main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  safenn::set_log_level(safenn::LogLevel::kError);
  const double epoch = now_seconds();
  RunContext ctx(options, epoch);
  ctx.deadline_s = kFleetDeadlineSeconds;
  const HostRecord host = host_record(options.commit);
  const CpuJiffies jiffies0 = read_cpu_jiffies();

  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);

  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_seconds();
    setup_once(ctx);
    setups.push_back(now_seconds() - t0);
  }
  ctx.results.metric("setup_s", median(setups), "s");
  std::string setups_json = "[";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    setups_json += (i ? ", " : "") + json_num(setups[i]);
  }
  ctx.results.record("setup_runs_s", setups_json + "]");

  const double t_measure = now_seconds();
  workload(ctx);
  const double measured_s = now_seconds() - t_measure;

  // Serving output checks over the fleet's whole lifetime.
  ctx.server->stop();
  const ReplayReport replay = ctx.replay->finish(ctx.server->metrics());
  ctx.results.check(replay.ok(),
                    "serving replay: " + std::to_string(replay.pairs) +
                        " pairs, " + std::to_string(replay.pair_mismatches) +
                        " counter mismatches, " +
                        std::to_string(replay.action_mismatches) +
                        " action mismatches, " +
                        std::to_string(replay.untagged) + " untagged, " +
                        std::to_string(replay.broken) + " broken, " +
                        std::to_string(replay.mixed_batches) + " mixed");
  ctx.results.record(
      "serve_checks",
      "{\"responses\": " + std::to_string(replay.responses) +
          ", \"pairs\": " + std::to_string(replay.pairs) +
          ", \"counter_mismatches\": " +
          std::to_string(replay.pair_mismatches) +
          ", \"action_mismatches\": " +
          std::to_string(replay.action_mismatches) +
          ", \"untagged\": " + std::to_string(replay.untagged) +
          ", \"broken_promises\": " + std::to_string(replay.broken) +
          ", \"mixed_batches\": " + std::to_string(replay.mixed_batches) +
          "}");

  ctx.results.record("peak_rss_run_mb", json_num(peak_rss_mb()));
  const double steal = steal_share(jiffies0, read_cpu_jiffies());
  if (options.trace) {
    ctx.results.metric(
        "trace.overhead_frac",
        tracing_overhead_frac(ctx, measured_s, ctx.live_spans()), "fraction");
  }

  Results& res = ctx.results;
  res.record("host", "{\"nproc\": " + std::to_string(host.nproc) +
                         ", \"simd_isa\": " + json_str(host.simd_isa) +
                         ", \"build_type\": " + json_str(host.build_type) +
                         ", \"compiler\": " + json_str(host.compiler) +
                         ", \"commit\": " + json_str(host.commit) +
                         ", \"steal_frac\": " + json_num(steal) + "}");
  res.record("workload", json_str(options.workload));
  res.record("seed", std::to_string(options.seed));
  res.record("seconds", json_num(options.seconds));
  res.record("trace", options.trace ? "true" : "false");
  res.record("input_hash", json_str(safenn::hex64(ctx.input_hash)));
  res.record("measured_s", json_num(measured_s));
  std::string failures = "[";
  for (std::size_t i = 0; i < res.check_failures().size(); ++i) {
    failures += (i ? ", " : "") + json_str(res.check_failures()[i]);
  }
  res.record("check_failures", failures + "]");

  // Every metric by name with its unit (both sets, for the record).
  for (const auto& [name, m] : res.metrics()) {
    std::printf("metric %-26s %14.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string record = "{\"record\": {";
  bool first = true;
  for (const auto& [k, v] : res.records()) {
    record += (first ? "" : ", ") + json_str(k) + ": " + v;
    first = false;
  }
  std::printf("%s}}\n", record.c_str());

  if (options.trace) {
    const std::string path = options.work_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".jsonl";
    std::vector<Span> spans = ctx.all_spans();
    if (write_spans(path, spans)) {
      std::printf("trace: %zu spans written to %s\n", spans.size(),
                  path.c_str());
    }
  }

  // The result line.
  std::string metrics = "{";
  first = true;
  const auto emit = [&](const char* name) {
    const auto it = res.metrics().find(name);
    const double v = it == res.metrics().end() ? 0.0 : it->second.value;
    const std::string unit = it == res.metrics().end() ? "" : it->second.unit;
    if (it == res.metrics().end()) {
      res.check(false, std::string("metric not measured: ") + name);
    }
    metrics += (first ? "" : ", ") + json_str(name) + ": {\"value\": " +
               json_num(v) + ", \"unit\": " + json_str(unit) + "}";
    first = false;
  };
  if (options.trace) {
    for (const char* n : kPerLayer) emit(n);
  } else {
    for (const char* n : kEndToEnd) emit(n);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}}\n",
              res.correct() ? "true" : "false", res.attempted_total(),
              res.failed_total(), metrics.c_str());
  std::fflush(stdout);
  fs::remove_all(options.work_dir + "/registry");
  fs::remove_all(options.work_dir + "/vcache");
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
