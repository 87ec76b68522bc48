// The serve phase: open-loop Poisson traffic against the two-model fleet
// at a light rung, the reference rung, a search of the offered-rate
// ladder, and an overload rung.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/pipeline.hpp"
#include "host.hpp"
#include "linalg/qmatrix.hpp"
#include "phases.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace serve = safenn::serve;

/// The ladder: geometric in 5% steps from the reference rate, so a
/// one-tenth change in capacity moves the highest passing rung by about
/// two steps. The overload rung sits past twice the fleet's capacity on
/// a 4-vCPU host, where its failure share moves less than capacity does.
constexpr double kLadderRatio = 1.05;
constexpr double kOverloadRps = 200000.0;
/// The overload rung runs as this many rungs of overload_s / kOverloadParts
/// (the queue drains between them) and serve_fail_frac pools them: the
/// saturated fleet's failure share swings within a second, and the
/// request records of one part are freed before the next.
constexpr int kOverloadParts = 3;
/// The scan starts at this share of the goodput the fleet sustained at
/// the overload rung: the knee sat at 0.72-1.08 of it over the runs of a
/// 4-vCPU host. It stops after two failing rungs in a row, or after
/// kMaxScanRungs rungs (0.7 * 1.05^11 = 1.2 of the goodput).
constexpr double kScanStartShare = 0.7;
constexpr std::size_t kScanStopAfter = 2;
constexpr std::size_t kMaxScanRungs = 12;
/// Request trees kept for the span file per run.
constexpr std::size_t kSpanFileRequestCap = 4000;

struct CounterSnapshot {
  std::uint64_t batches, items, rejected, shed, degraded;
};

CounterSnapshot snapshot(const serve::MetricsRegistry& m) {
  return {m.batches.load(), m.batch_items.load(), m.rejected.load(),
          m.shed.load(), m.degraded.load()};
}

struct Rung {
  double offered_rps = 0.0;
  RungResult result;         // what the serve_max_rps rule judges
  LatencySummary latency;   // failures counted at the limit or later
  double cpu_us_per_req = 0.0;
  double late_p99_ms = 0.0;  // generator lateness: scheduled -> submit
  double late_max_ms = 0.0;
  double submit_us_p50 = 0.0, submit_us_p99 = 0.0;
  double queue_ms_p50 = 0.0, queue_ms_p99 = 0.0;
  double infer_us_p50 = 0.0;
  double mean_batch = 0.0;
  double fail_frac = 0.0;
  std::string failure;       // "" when the rung meets every condition
};

double pct(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

Rung run_rung(RunContext& ctx, double rate, double seconds,
              std::uint64_t stream, const RungRule& rule,
              LayerAccumulator* layers) {
  const TrafficPlan plan =
      make_traffic(derive_seed(ctx.options.seed, stream), rate, seconds,
                   ctx.fleet.scenes.size());
  ctx.mix_input_hash(plan_hash(plan));
  serve::MetricsRegistry& metrics = ctx.server->metrics();
  const CounterSnapshot before = snapshot(metrics);
  const TrafficRun run =
      run_traffic(*ctx.server, ctx.fleet, plan, ctx.versions);
  const CounterSnapshot after = snapshot(metrics);

  Rung r;
  r.offered_rps = rate;
  std::vector<double> late, submit, queue, infer;
  std::size_t failed = 0, answered = 0;
  for (const RequestRecord& rec : run.records) {
    if (rec.failed()) {
      ++failed;
    } else {
      ++answered;
      queue.push_back(rec.queue_s * 1e3);
      infer.push_back(rec.infer_s * 1e6);
    }
    late.push_back((rec.sent_begin - rec.scheduled) * 1e3);
    submit.push_back((rec.sent_end - rec.sent_begin) * 1e6);
    if (layers != nullptr) {
      std::vector<Span> tree = request_spans(rec, ctx.tracer.epoch());
      layers->add_tree(tree);
      // Keep a sample of request trees for the span file; the aggregate
      // above covers every request.
      if (ctx.tracer.spans().size() < kSpanFileRequestCap * tree.size()) {
        const int base = static_cast<int>(ctx.tracer.spans().size());
        for (Span& s : tree) {
          if (s.parent >= 0) s.parent += base;
          s.id = ++ctx.request_ids;
          ctx.tracer.spans().push_back(std::move(s));
        }
      }
    }
  }
  r.latency = traffic_latency(run.records, rule.latency_limit_ms);
  r.late_p99_ms = pct(late, 0.99);
  r.late_max_ms = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  r.submit_us_p50 = pct(submit, 0.5);
  r.submit_us_p99 = pct(submit, 0.99);
  r.queue_ms_p50 = pct(queue, 0.5);
  r.queue_ms_p99 = pct(queue, 0.99);
  r.infer_us_p50 = pct(infer, 0.5);
  r.cpu_us_per_req =
      answered == 0 ? 0.0 : run.cpu_s * 1e6 / static_cast<double>(answered);
  r.fail_frac = run.records.empty()
                    ? 0.0
                    : static_cast<double>(failed) /
                          static_cast<double>(run.records.size());
  const std::uint64_t batches = after.batches - before.batches;
  r.mean_batch = batches == 0 ? 0.0
                              : static_cast<double>(after.items - before.items) /
                                    static_cast<double>(batches);

  r.result.offered_rps = rate;
  r.result.sent = run.records.size();
  r.result.failed = failed;
  r.result.p99_ms = r.latency.p99;
  const std::size_t half = run.depth_at_send.size() / 2;
  double d1 = 0.0, d2 = 0.0;
  for (std::size_t i = 0; i < run.depth_at_send.size(); ++i) {
    (i < half ? d1 : d2) += run.depth_at_send[i];
  }
  r.result.depth_first_half = half == 0 ? 0.0 : d1 / static_cast<double>(half);
  r.result.depth_second_half =
      run.depth_at_send.size() - half == 0
          ? 0.0
          : d2 / static_cast<double>(run.depth_at_send.size() - half);
  r.failure = rung_failure(r.result, rule);

  account_traffic(ctx, run);
  std::printf("  rung %8.0f rps %5.2fs: sent %7zu  fail %.4f  p50 %.3f ms  "
              "p99 %.3f ms  batch %.2f  depth %.1f->%.1f  late p99 %.3f ms  "
              "%s\n",
              rate, seconds, run.records.size(), r.fail_frac, r.latency.p50,
              r.latency.p99, r.mean_batch, r.result.depth_first_half,
              r.result.depth_second_half, r.late_p99_ms,
              r.failure.empty() ? "pass" : ("FAIL " + r.failure).c_str());
  return r;
}

/// The fleet's capacity as the traced run measures it.
struct Capacity {
  double fail_frac = 0.0;  // serve_fail_frac
  double goodput = 0.0;    // answered on time per second at overload
  double max_rps = 0.0;    // serve_max_rps
  std::size_t scanned = 0;
  double first_rps = 0.0;
  double late_p99_ms = 0.0;
  std::size_t sent = 0;
};

/// The overload rung, then the ladder scan. Every rung it runs is
/// appended to `measured`, in order.
Capacity capacity_pass(RunContext& ctx, const ServeSizes& sz,
                       const RungRule& rule, LayerAccumulator* acc,
                       std::vector<Rung>& measured) {
  Capacity c;
  std::size_t failed = 0;
  for (int part = 0; part < kOverloadParts; ++part) {
    measured.push_back(run_rung(ctx, kOverloadRps,
                                sz.overload_s / kOverloadParts, 12 + part,
                                rule, acc));
    const Rung& r = measured.back();
    c.sent += r.result.sent;
    failed += r.result.failed;
    c.late_p99_ms = std::max(c.late_p99_ms, r.late_p99_ms);
  }
  c.fail_frac = c.sent == 0 ? 0.0
                            : static_cast<double>(failed) /
                                  static_cast<double>(c.sent);
  c.goodput = static_cast<double>(c.sent - failed) / sz.overload_s;

  // The scan: ladder rungs upward, one trial each, from the highest rung
  // at or below kScanStartShare of the goodput, until two fail in a row.
  // serve_max_rps is the highest rung that passed. If none did, rungs
  // below the first are tried downward until one passes.
  const std::vector<double> ladder =
      geometric_ladder(kRefRps, kOverloadRps, kLadderRatio);
  const std::size_t start = scan_start(ladder, kScanStartShare * c.goodput);
  c.first_rps = ladder[start];
  const auto try_rung = [&](std::size_t i) {
    measured.push_back(
        run_rung(ctx, ladder[i], sz.probe_s, 100 + i, rule, acc));
    return measured.back().failure.empty();
  };
  std::vector<bool> verdicts;
  for (std::size_t i = start; i < ladder.size() &&
                              verdicts.size() < kMaxScanRungs &&
                              !scan_done(verdicts, kScanStopAfter);
       ++i) {
    verdicts.push_back(try_rung(i));
  }
  c.scanned = verdicts.size();
  const std::ptrdiff_t best = scan_highest_pass(verdicts);
  if (best >= 0) {
    c.max_rps = ladder[start + static_cast<std::size_t>(best)];
  } else {
    for (std::size_t i = start; i-- > 0;) {
      if (try_rung(i)) {
        c.max_rps = ladder[i];
        break;
      }
    }
  }
  return c;
}

}  // namespace

void serve_phase(RunContext& ctx, const ServeSizes& sz) {
  Results& res = ctx.results;
  RungRule rule;
  rule.latency_limit_ms = ctx.deadline_s * 1e3;
  serve::MetricsRegistry& metrics = ctx.server->metrics();
  const CounterSnapshot phase_before = snapshot(metrics);
  LayerAccumulator layers;
  LayerAccumulator* acc = ctx.options.trace ? &layers : nullptr;
  const double phase_start = now_seconds();
  std::printf("serve phase: limit %.1f ms\n", rule.latency_limit_ms);

  const Rung light = run_rung(ctx, kLightRps, sz.light_s, 10, rule, acc);
  const Rung ref = run_rung(ctx, kRefRps, sz.ref_s, 11, rule, acc);
  std::vector<Rung> measured = {light, ref};

  res.metric("serve_cpu_us_per_req", ref.cpu_us_per_req, "us");
  if (!res.has_metric("serve_p50_ms")) {
    res.metric("serve_p50_ms", ref.latency.p50, "ms");
    res.metric("serve_p99_ms", ref.latency.p99, "ms");
    res.record("serve_latency_source", json_str("reference rung"));
  }
  res.metric("serve.submit_us.p50", ref.submit_us_p50, "us");
  res.metric("serve.submit_us.p99", ref.submit_us_p99, "us");

  // Record: the sample counts and the generator's own lateness.
  res.record("serve_ref",
             "{\"rps\": " + json_num(kRefRps) +
                 ", \"samples\": " + std::to_string(ref.latency.count) +
                 ", \"p50_ms\": " + json_num(ref.latency.p50) +
                 ", \"p99_ms\": " + json_num(ref.latency.p99) +
                 ", \"beyond_p99\": " + std::to_string(ref.latency.count / 100) +
                 ", \"tail_pct\": " + json_num(ref.latency.tail_pct) +
                 ", \"tail_ms\": " + json_num(ref.latency.tail) +
                 ", \"beyond_tail\": " +
                 std::to_string(ref.latency.beyond_tail) +
                 ", \"late_p99_ms\": " + json_num(ref.late_p99_ms) +
                 ", \"late_max_ms\": " + json_num(ref.late_max_ms) +
                 ", \"mean_batch\": " + json_num(ref.mean_batch) + "}");
  res.record("serve_light",
             "{\"rps\": " + json_num(kLightRps) +
                 ", \"samples\": " + std::to_string(light.latency.count) +
                 ", \"p50_ms\": " + json_num(light.latency.p50) +
                 ", \"p99_ms\": " + json_num(light.latency.p99) +
                 ", \"mean_batch\": " + json_num(light.mean_batch) + "}");
  std::printf("serve phase: ref p50 %.3f p99 %.3f ms  cpu %.2f us/req\n",
              ref.latency.p50, ref.latency.p99, ref.cpu_us_per_req);
  if (acc == nullptr) return;

  // The traced run only: the capacity figures and the per-layer view of
  // the knee, unbounded (README, "Open-loop serving figures").
  const Capacity c = capacity_pass(ctx, sz, rule, acc, measured);
  const double phase_end = now_seconds();
  const CounterSnapshot phase_after = snapshot(metrics);
  res.metric("serve_max_rps", c.max_rps, "req/s");
  res.metric("serve_fail_frac", c.fail_frac, "fraction");
  // A passing trial at the highest passing rate.
  const Rung* knee = &ref;
  for (const Rung& r : measured) {
    if (r.failure.empty() && r.offered_rps == c.max_rps) knee = &r;
  }
  res.metric("serve.queue_ms.p50", knee->queue_ms_p50, "ms");
  res.metric("serve.queue_ms.p99", knee->queue_ms_p99, "ms");
  res.metric("serve.infer_us.p50", knee->infer_us_p50, "us");
  res.metric("serve.batch_mean", knee->mean_batch, "requests");
  res.metric("serve.rejected",
             static_cast<double>(phase_after.rejected - phase_before.rejected),
             "count");
  res.metric("serve.shed",
             static_cast<double>(phase_after.shed - phase_before.shed),
             "count");
  res.metric("serve.degraded",
             static_cast<double>(phase_after.degraded - phase_before.degraded),
             "count");
  std::string rungs = "[";
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const Rung& r = measured[i];
    rungs += (i ? ", " : "") + std::string("{\"rps\": ") +
             json_num(r.offered_rps) + ", \"sent\": " +
             std::to_string(r.result.sent) + ", \"fail_frac\": " +
             json_num(r.fail_frac) + ", \"p99_ms\": " +
             json_num(r.latency.p99) + ", \"result\": " +
             json_str(r.failure.empty() ? "pass" : r.failure) + "}";
  }
  res.record("serve_rungs", rungs + "]");
  res.record("serve_overload",
             "{\"rps\": " + json_num(kOverloadRps) +
                 ", \"parts\": " + std::to_string(kOverloadParts) +
                 ", \"sent\": " + std::to_string(c.sent) +
                 ", \"fail_frac\": " + json_num(c.fail_frac) +
                 ", \"goodput_rps\": " + json_num(c.goodput) +
                 ", \"late_p99_ms\": " + json_num(c.late_p99_ms) + "}");
  res.record("serve_scan",
             "{\"ladder_ratio\": " + json_num(kLadderRatio) +
                 ", \"first_rps\": " + json_num(c.first_rps) +
                 ", \"rungs\": " + std::to_string(c.scanned) +
                 ", \"max_rps\": " + json_num(c.max_rps) + "}");
  std::printf("serve phase: max_rps %.0f  overload fail %.4f\n", c.max_rps,
              c.fail_frac);
  acc->print("serve", phase_start - ctx.tracer.epoch(),
             phase_end - ctx.tracer.epoch());
}

namespace {

/// Median per-call seconds of `fn` over 7 blocks of `reps` calls.
template <typename Fn>
double time_per_call(std::size_t reps, Fn&& fn) {
  std::vector<double> blocks;
  for (int b = 0; b < 7; ++b) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < reps; ++i) fn();
    blocks.push_back((now_seconds() - t0) / static_cast<double>(reps));
  }
  return median(blocks);
}

}  // namespace

void serving_layer_pass(RunContext& ctx, double mean_batch) {
  namespace linalg = safenn::linalg;
  Results& res = ctx.results;
  const safenn::nn::Network& net = ctx.fleet.alpha.network;
  const std::size_t in = net.input_size();
  const std::size_t batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(mean_batch)));
  std::vector<linalg::Vector> rows;
  for (std::size_t i = 0; i < std::max<std::size_t>(batch, 16); ++i) {
    rows.push_back(ctx.fleet.scenes[i % ctx.fleet.scenes.size()]);
  }
  const std::vector<linalg::Vector> at_batch(rows.begin(),
                                             rows.begin() + batch);
  const std::vector<linalg::Vector> b16(rows.begin(), rows.begin() + 16);
  const linalg::Matrix m1 = safenn::core::pack_scenes({rows.front()});
  const linalg::Matrix m16 = safenn::core::pack_scenes(b16);

  // core: scene packing at the observed batch, and the per-row guard.
  double sink = 0.0;
  const double pack_s = time_per_call(2000, [&] {
    sink += safenn::core::pack_scenes(at_batch)(0, 0);
  });
  const safenn::core::SafetyMonitor monitor(
      ctx.fleet.alpha.monitor.region, ctx.fleet.alpha.monitor.lateral_threshold);
  const safenn::core::TrainedPredictor predictor = ctx.fleet.alpha.predictor();
  const std::vector<safenn::nn::GaussianMixture> mix =
      predictor.predict_batch(m16);
  std::size_t row = 0;
  const double guard_s = time_per_call(20000, [&] {
    const std::size_t r = row++ % 16;
    sink += monitor.guard_action(b16[r], mix[r].mean()).action[0];
  });

  // nn: the float model's forward on its gated (reference) backend, and
  // the quantized model's packed integer engine.
  const double f1_s = time_per_call(2000, [&] {
    sink += net.forward_batch(m1, linalg::KernelBackend::kReference)(0, 0);
  });
  const double f16_s = time_per_call(500, [&] {
    sink += net.forward_batch(m16, linalg::KernelBackend::kReference)(0, 0);
  });
  const auto& qp = *ctx.fleet.beta.quantized;
  const safenn::nn::QuantizedEngine qengine(qp.network, qp.input_limit);
  safenn::nn::QuantizedEngine::Scratch scratch;
  linalg::Matrix raw;
  const double q16_s = time_per_call(500, [&] {
    qengine.forward_real_batch(m16, scratch, raw);
    sink += raw(0, 0);
  });

  // linalg: the float GEMMs at the float model's layer shapes (batch 16)
  // and the integer GEMMs at the quantized engine's shapes.
  double flops = 0.0, bytes = 0.0;
  std::vector<linalg::Matrix> acts;
  acts.push_back(m16);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const linalg::Matrix& w = net.layer(li).weights();
    flops += 2.0 * 16.0 * static_cast<double>(w.rows() * w.cols());
    // Computed bytes moved per batch-16 forward: weights and biases read
    // once, layer input read and output written (8-byte doubles).
    bytes += 8.0 * static_cast<double>(w.rows() * w.cols() + w.rows() +
                                       16 * (w.cols() + w.rows()));
    acts.emplace_back(16, w.rows());
  }
  const double gemm_s = time_per_call(500, [&] {
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      linalg::Matrix::gemm_nt_into(acts[li], net.layer(li).weights(),
                                   acts[li + 1],
                                   linalg::KernelBackend::kReference);
    }
    sink += acts.back()(0, 0);
  });
  double ops = 0.0;
  std::vector<linalg::Int32Matrix> qx;
  std::vector<linalg::Int16Matrix> qw;
  std::vector<std::vector<std::int64_t>> qc;
  for (const linalg::QuantShape& s : qengine.gemm_shapes(16)) {
    ops += 2.0 * static_cast<double>(s.m * s.k * s.n);
    qx.emplace_back(s.m, s.k);
    qw.emplace_back(s.n, s.k);
    for (std::size_t r = 0; r < s.m; ++r) {
      for (std::size_t c = 0; c < s.k; ++c) {
        qx.back()(r, c) = static_cast<std::int32_t>((r * 31 + c * 7) % 255) - 127;
      }
    }
    for (std::size_t r = 0; r < s.n; ++r) {
      for (std::size_t c = 0; c < s.k; ++c) {
        qw.back()(r, c) = static_cast<std::int16_t>((r * 13 + c * 5) % 255) - 127;
      }
    }
    qc.emplace_back(s.m * s.n, 0);
  }
  const double qgemm_s = time_per_call(500, [&] {
    for (std::size_t i = 0; i < qx.size(); ++i) {
      linalg::qkernels::qgemm_nt(qc[i].data(), qx[i], qw[i],
                                 linalg::KernelBackend::kQuantized);
    }
    sink += static_cast<double>(qc.back()[0]);
  });
  if (sink == 12345.678) std::printf(" ");  // keep the work observable

  res.metric("core.pack_us", pack_s * 1e6, "us");
  res.metric("core.guard_us", guard_s * 1e6, "us");
  res.metric("nn.forward_us.b1", f1_s * 1e6, "us");
  res.metric("nn.forward_us.b16", f16_s * 1e6, "us");
  res.metric("nn.qforward_us.b16", q16_s * 1e6, "us");
  res.metric("linalg.gemm_gflops", flops / gemm_s * 1e-9, "GFLOP/s");
  res.metric("linalg.qgemm_gops", ops / qgemm_s * 1e-9, "GOP/s");
  res.metric("linalg.forward_bytes.b16", bytes, "bytes");
  res.record("serving_layer_pass",
             "{\"batch\": " + std::to_string(batch) +
                 ", \"input_dim\": " + std::to_string(in) +
                 ", \"forward_bytes_b16\": \"computed from tensor sizes\"}");
}

}  // namespace perfbench
