// The update phase: one thread repeats the model-update cycle while the
// generator keeps traffic flowing into the fleet.
//
//   1. simulate a fresh seeded dataset shard   highway::build_highway_dataset
//   2. fine-tune beta from its committed base  nn::Trainer, 1 worker
//   3. quantize and publish it packed          attach_quantized + save
//   4. load it back, check the round trip      ModelRegistry::load
//   5. re-verify the fleet battery             PortfolioVerifier + cache
//   6. hot-swap it                             MultiModelServer::reload
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

#include "core/pipeline.hpp"
#include "highway/dataset_builder.hpp"
#include "host.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "phases.hpp"
#include "stats.hpp"
#include "verify/portfolio.hpp"

namespace perfbench {
namespace {

namespace registry = safenn::registry;
namespace verify = safenn::verify;

constexpr int kShardSampleSteps = 25;  // ~2k samples per shard
constexpr std::size_t kShardSamples = 1500;  // the prefix beta trains on
constexpr std::size_t kFineTuneEpochs = 2;

struct CycleStats {
  double total_s = 0.0, build_s = 0.0, train_s = 0.0, publish_s = 0.0;
  double load_s = 0.0, verify_s = 0.0, reload_s = 0.0;
  std::vector<double> epoch_s;
  std::size_t samples = 0;
  std::size_t lookups = 0, hits = 0;
  std::vector<double> hit_ms;
  std::size_t hit_mismatches = 0;
  std::size_t roundtrip_failures = 0;
  std::size_t contradictions = 0;
  std::size_t gate_demotions = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string canonical_text(const registry::ModelArtifact& a) {
  std::ostringstream os;
  registry::save_artifact(os, a);
  return os.str();
}

CycleStats run_cycle(RunContext& ctx, std::uint64_t k,
                     std::vector<registry::ModelArtifact>& published) {
  CycleStats st;
  Tracer& tr = ctx.update_tracer;
  const std::uint64_t seed = ctx.options.seed;
  const std::uint64_t version_no = ++ctx.cycles;
  const ScopedSpan cycle(tr, "update.cycle", -1, version_no);
  const double t_cycle = now_seconds();

  // 1. Fresh shard from the simulator.
  double t0 = now_seconds();
  safenn::highway::BuiltDataset shard;
  {
    const ScopedSpan s(tr, "highway.build", cycle.index(), version_no);
    safenn::highway::SceneEncoder encoder;
    safenn::highway::DatasetBuildConfig cfg;
    cfg.warmup_steps = 30;
    cfg.sample_steps = kShardSampleSteps;
    cfg.seed = derive_seed(seed, 5000 + k);
    cfg.num_workers = 1;
    shard = safenn::highway::build_highway_dataset(encoder, cfg);
  }
  st.build_s = now_seconds() - t0;
  // A fixed-size prefix: how many samples a seed's scenarios yield varies,
  // and training cost must not.
  st.samples = std::min(kShardSamples, shard.data.size());
  const auto take = static_cast<std::ptrdiff_t>(st.samples);
  const std::vector<safenn::linalg::Vector> inputs(
      shard.data.inputs().begin(), shard.data.inputs().begin() + take);
  const std::vector<safenn::linalg::Vector> targets(
      shard.data.targets().begin(), shard.data.targets().begin() + take);

  // 2. Fine-tune beta from the committed base.
  t0 = now_seconds();
  safenn::core::TrainedPredictor predictor = ctx.fleet.beta.predictor();
  {
    const ScopedSpan s(tr, "nn.train", cycle.index(), version_no);
    safenn::nn::TrainConfig tc;
    tc.epochs = kFineTuneEpochs;
    tc.batch_size = 64;
    tc.learning_rate = 1e-3;
    tc.shuffle_seed = derive_seed(seed, 6000 + k);
    tc.num_workers = 1;
    double last = now_seconds();
    tc.on_epoch = [&](const safenn::nn::EpochStats&) {
      const double now = now_seconds();
      st.epoch_s.push_back(now - last);
      tr.add("nn.epoch", last, now, s.index(), version_no);
      last = now;
    };
    const safenn::nn::MdnLoss loss(predictor.head);
    safenn::nn::Trainer(tc).train(predictor.network, loss, inputs, targets);
  }
  st.train_s = now_seconds() - t0;

  // 3. Quantize at beta's committed precision and domain; publish packed.
  t0 = now_seconds();
  const std::string version = "beta-u" + std::to_string(version_no);
  registry::ModelArtifact artifact;
  {
    const ScopedSpan s(tr, "registry.publish", cycle.index(), version_no);
    artifact = registry::make_artifact(version, predictor,
                                       ctx.fleet.beta.monitor);
    registry::attach_quantized(artifact,
                               ctx.fleet.beta.quantized->network.frac_bits(),
                               ctx.fleet.beta.quantized->input_limit);
    ctx.registry->save(artifact, registry::ArtifactEncoding::kPacked);
  }
  st.publish_s = now_seconds() - t0;

  // 4. Load it back: identical content hash and canonical bytes.
  t0 = now_seconds();
  registry::ModelArtifact loaded;
  {
    const ScopedSpan s(tr, "registry.load", cycle.index(), version_no);
    loaded = ctx.registry->load(version);
  }
  st.load_s = now_seconds() - t0;
  if (loaded.content_hash != artifact.content_hash ||
      canonical_text(loaded) != canonical_text(artifact)) {
    ++st.roundtrip_failures;
  }

  // 5. Re-verify the fleet battery: alpha is unchanged (cache hits that
  // must replay the stored verdicts bit for bit); beta's new version
  // misses and is verified fresh.
  t0 = now_seconds();
  {
    const ScopedSpan s(tr, "verify.recheck", cycle.index(), version_no);
    const Battery& b = ctx.fleet_battery;
    for (std::size_t i = 0; i < b.queries.size(); ++i) {
      const BatteryQuery& q = b.queries[i];
      const safenn::nn::Network& net =
          q.net == kModelIds[0] ? ctx.fleet.alpha.network : loaded.network;
      const verify::SafetyProperty prop = make_property(b, q);
      verify::PortfolioOptions po;
      po.time_limit_seconds = b.deadline_seconds;
      po.num_workers = 1;
      const ScopedSpan qs(tr, "verify.prove", s.index(), i);
      const double tq = now_seconds();
      const verify::PortfolioResult r =
          verify::PortfolioVerifier(po, ctx.cache.get()).prove(net, prop);
      const double q_ms = (now_seconds() - tq) * 1e3;
      const std::string key = verify::make_cache_key(net, prop).hex();
      ++st.lookups;
      if (r.from_cache) {
        ++st.hits;
        st.hit_ms.push_back(q_ms);
        const auto it = ctx.stored.find(key);
        if (it == ctx.stored.end() || it->second.verdict != r.verdict ||
            !same_bits(it->second.upper_bound, r.upper_bound) ||
            it->second.has_value != r.has_value ||
            !same_bits(it->second.max_value, r.max_value) ||
            it->second.engine != r.engine_name) {
          ++st.hit_mismatches;
        }
      } else {
        ctx.stored[key] = StoredVerdict{r.verdict, r.upper_bound, r.has_value,
                                        r.max_value, r.engine_name};
        for (const verify::EngineOutcome& o : r.engines) {
          for (const verify::EngineOutcome& p : r.engines) {
            if (o.decided && p.decided &&
                ((o.verdict == verify::Verdict::kProved &&
                  p.verdict == verify::Verdict::kViolated))) {
              ++st.contradictions;
            }
          }
        }
      }
    }
  }
  st.verify_s = now_seconds() - t0;

  // 6. Hot-swap beta under live traffic.
  t0 = now_seconds();
  {
    const ScopedSpan s(tr, "serve.reload", cycle.index(), version_no);
    const safenn::linalg::KernelBackend backend =
        ctx.server->reload(kModelIds[1], loaded);
    if (backend != safenn::linalg::KernelBackend::kQuantized) {
      ++st.gate_demotions;
    }
  }
  st.reload_s = now_seconds() - t0;
  published.push_back(std::move(loaded));
  st.total_s = now_seconds() - t_cycle;
  return st;
}

}  // namespace

void update_phase(RunContext& ctx, int num_cycles, bool primary) {
  Results& res = ctx.results;
  // Traffic at the reference rate runs until the last cycle returns; the
  // plan covers cycles of up to 6 s each (they take 1-3 s on a 4-vCPU
  // host).
  const TrafficPlan plan =
      make_traffic(derive_seed(ctx.options.seed, 20), kRefRps,
                   6.0 * num_cycles, ctx.fleet.scenes.size());
  ctx.mix_input_hash(plan_hash(plan));
  std::atomic<bool> done{false};
  std::vector<CycleStats> cycles;
  std::vector<registry::ModelArtifact> published;
  std::exception_ptr error;
  const double start = now_seconds();
  const std::size_t first_update_span = ctx.update_tracer.spans().size();
  std::printf("update phase: %d cycles, traffic %.0f rps\n", num_cycles,
              kRefRps);

  std::thread updater([&] {
    try {
      for (int k = 0; k < num_cycles; ++k) {
        cycles.push_back(
            run_cycle(ctx, static_cast<std::uint64_t>(k), published));
      }
    } catch (...) {
      error = std::current_exception();
    }
    done.store(true);
  });
  const TrafficRun run =
      run_traffic(*ctx.server, ctx.fleet, plan, ctx.versions,
                  [&](double) { return done.load(); });
  updater.join();
  const double end = now_seconds();
  for (const registry::ModelArtifact& a : published) {
    ctx.replay->add_artifact(a);
  }
  account_traffic(ctx, run);

  std::size_t cycle_failures = error ? 1 : 0;
  res.attempted(cycles.size() + (error ? 1 : 0), cycle_failures);
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      res.check(false, std::string("update cycle failed: ") + e.what());
    }
  }

  std::vector<double> total, build, epoch, samples_per_s, publish, load,
      reload, hit_ms, vtime;
  std::size_t lookups = 0, hits = 0, hit_mismatches = 0, roundtrip = 0,
              contradictions = 0, demotions = 0;
  for (const CycleStats& c : cycles) {
    total.push_back(c.total_s);
    build.push_back(c.build_s);
    for (const double e : c.epoch_s) {
      epoch.push_back(e);
      if (e > 0.0) samples_per_s.push_back(static_cast<double>(c.samples) / e);
    }
    publish.push_back(c.publish_s * 1e3);
    load.push_back(c.load_s * 1e3);
    reload.push_back(c.reload_s * 1e3);
    vtime.push_back(c.verify_s);
    hit_ms.insert(hit_ms.end(), c.hit_ms.begin(), c.hit_ms.end());
    lookups += c.lookups;
    hits += c.hits;
    hit_mismatches += c.hit_mismatches;
    roundtrip += c.roundtrip_failures;
    contradictions += c.contradictions;
    demotions += c.gate_demotions;
  }
  res.check(hit_mismatches == 0,
            "update: " + std::to_string(hit_mismatches) +
                " cache hits differ from their stored verdicts");
  res.check(roundtrip == 0, "update: " + std::to_string(roundtrip) +
                                " published artifacts failed the round trip");
  res.check(contradictions == 0, "update: " + std::to_string(contradictions) +
                                     " engine contradictions");
  res.check(demotions == 0, "update: " + std::to_string(demotions) +
                                " reloads lost the quantized backend");
  res.check(!cycles.empty(), "update: no cycle completed");

  res.metric("update_s", median(total), "s");
  res.metric("serve.reload_ms", median(reload), "ms");
  res.metric("nn.train_epoch_s", median(epoch), "s");
  res.metric("nn.train_samples_per_s", median(samples_per_s), "1/s");
  res.metric("highway.build_s", median(build), "s");
  res.metric("registry.publish_ms", median(publish), "ms");
  res.metric("registry.load_ms", median(load), "ms");
  res.metric("verify.cache_hit_frac",
             lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups),
             "fraction");
  res.metric("verify.cache_hit_ms", median(hit_ms), "ms");

  // Live-traffic latency during the updates, over every request.
  const double limit_ms = ctx.deadline_s * 1e3;
  std::size_t failed = 0;
  std::vector<double> late;
  for (const RequestRecord& rec : run.records) {
    failed += rec.failed() ? 1 : 0;
    late.push_back((rec.sent_begin - rec.scheduled) * 1e3);
  }
  std::sort(late.begin(), late.end());
  const LatencySummary s = traffic_latency(run.records, limit_ms);
  if (primary) {
    res.metric("serve_p50_ms", s.p50, "ms");
    res.metric("serve_p99_ms", s.p99, "ms");
    res.record("serve_latency_source", json_str("live traffic during updates"));
  }
  res.record("update_traffic",
             "{\"rps\": " + json_num(kRefRps) +
                 ", \"samples\": " + std::to_string(s.count) +
                 ", \"failed\": " + std::to_string(failed) +
                 ", \"p50_ms\": " + json_num(s.p50) +
                 ", \"p99_ms\": " + json_num(s.p99) +
                 ", \"beyond_p99\": " + std::to_string(s.count / 100) +
                 ", \"late_p99_ms\": " + json_num(quantile_sorted(late, 0.99)) +
                 ", \"late_max_ms\": " +
                 json_num(late.empty() ? 0.0 : late.back()) +
                 ", \"tail_pct\": " + json_num(s.tail_pct) +
                 ", \"tail_ms\": " + json_num(s.tail) +
                 ", \"beyond_tail\": " + std::to_string(s.beyond_tail) + "}");
  const auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + json_num(v[i]);
    return s + "]";
  };
  res.record("update_cycles",
             "{\"count\": " + std::to_string(cycles.size()) +
                 ", \"total_s\": " + list(total) +
                 ", \"build_s\": " + list(build) +
                 ", \"verify_s\": " + list(vtime) +
                 ", \"reload_ms\": " + list(reload) +
                 ", \"median_s\": " + json_num(median(total)) +
                 ", \"verify_median_s\": " + json_num(median(vtime)) +
                 ", \"cache_lookups\": " + std::to_string(lookups) +
                 ", \"cache_hits\": " + std::to_string(hits) + "}");
  std::printf("update phase: %zu cycles, median %.3f s (verify %.3f s), "
              "traffic p50 %.3f ms p99 %.3f ms, %zu/%zu cache hits\n",
              cycles.size(), median(total), median(vtime), s.p50, s.p99, hits,
              lookups);

  if (ctx.options.trace) {
    // Step spans must cover each cycle; requests cover the traffic.
    std::vector<Span> mine(ctx.update_tracer.spans().begin() +
                               static_cast<std::ptrdiff_t>(first_update_span),
                           ctx.update_tracer.spans().end());
    for (Span& sp : mine) {
      if (sp.parent >= 0) sp.parent -= static_cast<int>(first_update_span);
    }
    LayerAccumulator steps;
    steps.add_tree(mine);
    steps.print("update", start - ctx.tracer.epoch(),
                end - ctx.tracer.epoch());
    LayerAccumulator requests;
    for (const RequestRecord& rec : run.records) {
      requests.add_tree(request_spans(rec, ctx.tracer.epoch()));
    }
    requests.print("update-traffic", start - ctx.tracer.epoch(),
                   end - ctx.tracer.epoch());
  }
}

}  // namespace perfbench
