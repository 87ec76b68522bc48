#include "verify/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/numtext.hpp"
#include "common/stopwatch.hpp"
#include "common/task_pool.hpp"
#include "nn/quantize.hpp"
#include "smt/qnn_encoder.hpp"
#include "verify/symbolic.hpp"

namespace safenn::verify {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int priority(PortfolioEngine e) { return static_cast<int>(e); }

/// Sound error budget for proving a *float* property through the
/// *quantized* circuit, split into:
///   eps — max |float(x̂) - quantized(x̂)| at the output, over grid inputs
///         x̂ (inputs representable at frac_bits are evaluated by both
///         networks from identical starting values), propagated layer by
///         layer: weight rounding is a half-ulp at frac_bits, the bias a
///         half-ulp at 2*frac_bits, and the accumulator's arithmetic
///         shift floors by at most one ulp; activation magnitudes come
///         from the hoisted root interval bounds. ReLU is 1-Lipschitz, so
///         post-activation error never exceeds pre-activation error.
///   lip — ∞-norm Lipschitz bound of the float network (product of
///         max absolute row sums), covering inputs *between* grid points:
///         every x in the (inward-rounded) box has a grid neighbour
///         within 2^-frac_bits per coordinate.
/// Total margin on the expr value: coef * (eps + lip * 2^-frac_bits).
struct QuantMargin {
  double eps = 0.0;
  double lip = 1.0;
  double total(double coef, int frac_bits) const {
    return coef * (eps + lip * std::ldexp(1.0, -frac_bits));
  }
};

QuantMargin quantization_margin(const nn::Network& net, int frac_bits,
                                const std::vector<LayerBounds>& root_bounds,
                                const Box& box) {
  const double wq = std::ldexp(1.0, -frac_bits - 1);
  const double bq = std::ldexp(1.0, -2 * frac_bits - 1);
  const double sq = std::ldexp(1.0, -frac_bits);
  QuantMargin m;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const nn::DenseLayer& layer = net.layer(li);
    double worst_err = 0.0;
    double worst_row = 0.0;
    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      double rowsum = 0.0;
      double ymag = 0.0;  // sum of |input magnitude bound| + carried eps
      for (std::size_t c = 0; c < layer.in_size(); ++c) {
        rowsum += std::abs(layer.weights()(r, c));
        const Interval in_iv =
            li == 0 ? box[c] : root_bounds[li - 1].post[c];
        ymag += std::max(std::abs(in_iv.lo), std::abs(in_iv.hi)) + m.eps;
      }
      const double err = rowsum * m.eps + wq * ymag + bq + sq;
      worst_err = std::max(worst_err, err);
      worst_row = std::max(worst_row, rowsum);
    }
    m.eps = worst_err;
    m.lip *= worst_row;
  }
  return m;
}

/// Pre-launch applicability analysis for the SAT/quantized engine: the
/// property must be expressible over the fixed-point semantics (box-only
/// region, a single positive-coefficient output term, a network that
/// quantizes exactly) and small enough that bit-blasting is worth trying.
struct SatGate {
  bool ok = false;
  std::string reason;
  std::size_t out_index = 0;
  double coef = 1.0;
  double margin = 0.0;  // expr-units error budget (QuantMargin::total)
  double out_lo = 0.0;  // search window for the quantized output value
  double out_hi = 0.0;
  std::optional<nn::QuantizedNetwork> qnet;
};

SatGate gate_sat_engine(const nn::Network& net, const SafetyProperty& property,
                        const PortfolioOptions& options,
                        const std::vector<LayerBounds>& root_bounds,
                        const Interval& root_iv) {
  SatGate gate;
  if (!property.region.constraints.empty()) {
    gate.reason = "side constraints not expressible over the box encoding";
    return gate;
  }
  if (property.expr.terms.size() != 1 || property.expr.terms[0].second <= 0.0) {
    gate.reason = "expr is not a single positive output term";
    return gate;
  }
  std::size_t weights = 0;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    weights += net.layer(li).in_size() * net.layer(li).out_size();
  }
  if (weights > options.sat_max_weights) {
    gate.reason = "circuit too large (" + std::to_string(weights) +
                  " weights > cap " + std::to_string(options.sat_max_weights) +
                  ")";
    return gate;
  }
  double input_bound = 1.0;
  for (const Interval& iv : property.region.box) {
    input_bound =
        std::max({input_bound, std::abs(iv.lo), std::abs(iv.hi)});
  }
  try {
    gate.qnet.emplace(nn::QuantizedNetwork::quantize(
        net, options.sat_frac_bits, input_bound));
  } catch (const nn::QuantizeError& e) {
    gate.reason = e.what();
    return gate;
  }
  gate.out_index = static_cast<std::size_t>(property.expr.terms[0].first);
  gate.coef = property.expr.terms[0].second;
  const QuantMargin m = quantization_margin(net, options.sat_frac_bits,
                                            root_bounds, property.region.box);
  gate.margin = m.total(gate.coef, options.sat_frac_bits);
  if (!std::isfinite(gate.margin)) {
    gate.reason = "quantization margin diverges";
    return gate;
  }
  const double eps_out = gate.margin / gate.coef;
  gate.out_lo = root_iv.lo / gate.coef - eps_out;
  gate.out_hi = root_iv.hi / gate.coef + eps_out;
  gate.ok = true;
  return gate;
}

/// The deterministic merge. Lowest decider priority; engines above it
/// may have been cancelled at a schedule-dependent point, so (in
/// deterministic mode) only engines at or below it — all of which ran to
/// their deterministic termination — contribute to the merged bound and
/// value. Racing mode applies the same rule for the winner; its bounds
/// are sound either way. `outs` is indexed by priority (empty when the
/// root decided alone).
PortfolioResult merge(EngineOutcome root, std::vector<EngineOutcome> outs,
                      double threshold) {
  int p_min = -1;
  for (const EngineOutcome& o : outs) {
    if (o.decided && (p_min < 0 || priority(o.engine) < p_min)) {
      p_min = priority(o.engine);
    }
  }
  const int include_up_to = p_min < 0 ? 2 : p_min;

  PortfolioResult result;
  result.upper_bound = root.upper_bound;
  result.winner = PortfolioEngine::kRoot;
  result.has_value = root.has_value;
  result.max_value = root.max_value;
  result.witness = root.witness;
  for (const EngineOutcome& o : outs) {
    if (!o.ran || priority(o.engine) > include_up_to) continue;
    if (o.upper_bound < result.upper_bound) {
      result.upper_bound = o.upper_bound;
      result.winner = o.engine;
    }
    if (o.has_value && (!result.has_value || o.max_value > result.max_value)) {
      result.has_value = true;
      result.max_value = o.max_value;
      result.witness = o.witness;
    }
  }

  if (p_min >= 0) {
    const EngineOutcome& winner = outs[static_cast<std::size_t>(p_min)];
    result.verdict = winner.verdict;
    result.winner = winner.engine;
    // Soundness assertion: sound engines can never disagree on a decided
    // query. A failure here is a portfolio bug, not an input problem —
    // the message carries every engine's full state for the post-mortem.
    for (const EngineOutcome& o : outs) {
      if (!o.decided || o.verdict == result.verdict) continue;
      auto fmt = [](double v) {
        char buf[numtext::kMaxChars];
        return std::string(buf, numtext::write(buf, v));
      };
      std::string msg = "PortfolioVerifier: engines disagree on the verdict"
                        " (threshold=" + fmt(threshold) + "):";
      for (const EngineOutcome& e : outs) {
        msg += std::string(" [") + to_string(e.engine) +
               (e.decided ? " decided=" + to_string(e.verdict)
                          : std::string(" undecided")) +
               " bound=" + fmt(e.upper_bound) +
               (e.has_value ? " value=" + fmt(e.max_value) : std::string()) +
               " " + e.detail + "]";
      }
      require(false, msg);
    }
  } else {
    // No single decider (the root alone, or a timeout): the merged
    // evidence may still close the query, e.g. one engine's bound plus
    // another's witness.
    result.verdict = decide_verdict(threshold, result.has_value,
                                    result.max_value, result.upper_bound);
    result.timed_out = result.verdict == Verdict::kUnknown;
  }
  result.engine_name = to_string(result.winner);
  result.engines.push_back(std::move(root));
  for (EngineOutcome& o : outs) result.engines.push_back(std::move(o));
  return result;
}

}  // namespace

const char* to_string(PortfolioEngine engine) {
  switch (engine) {
    case PortfolioEngine::kInputSplit: return "input_split";
    case PortfolioEngine::kMilp: return "milp";
    case PortfolioEngine::kSatQuantized: return "sat_quantized";
    case PortfolioEngine::kRoot: return "root";
  }
  return "?";
}

SharedIncumbent::SharedIncumbent(int num_engines) : value_(-kInf) {
  flags_.reserve(static_cast<std::size_t>(num_engines));
  for (int i = 0; i < num_engines; ++i) {
    flags_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
}

void SharedIncumbent::publish_value(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  value_ = std::max(value_, value);
}

double SharedIncumbent::best_value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return value_;
}

void SharedIncumbent::decide(int priority, bool cancel_all) {
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    const int p = static_cast<int>(i);
    const bool hit = cancel_all ? p != priority : p > priority;
    if (hit) flags_[i]->store(true, std::memory_order_release);
  }
}

PortfolioVerifier::PortfolioVerifier(PortfolioOptions options,
                                     VerificationCache* cache)
    : options_(std::move(options)), cache_(cache) {}

PortfolioResult PortfolioVerifier::prove(const nn::Network& net,
                                         const SafetyProperty& property) const {
  Stopwatch clock;
  const bool det = options_.deterministic;
  // The query's one deadline (racing mode): every engine and sub-solver,
  // set-up included, is measured against this instant.
  const Deadline deadline(det ? 0.0 : options_.time_limit_seconds);
  const InputRegion& region = property.region;
  const OutputExpr& expr = property.expr;
  const double threshold = property.threshold;
  check_query(net, region, expr);

  // Cache consultation: content-addressed, so a hit IS the earlier fresh
  // run (bitwise, via the hexfloat round-trip) for this exact artifact.
  CacheKey key;
  if (cache_) {
    key = make_cache_key(net, property);
    if (std::optional<CachedVerdict> hit = cache_->lookup(key)) {
      PortfolioResult result;
      result.verdict = hit->verdict;
      result.engine_name = hit->engine;
      result.upper_bound = hit->upper_bound;
      result.has_value = hit->has_value;
      result.max_value = hit->max_value;
      result.from_cache = true;
      result.timed_out = hit->verdict == Verdict::kUnknown;
      result.seconds = clock.seconds();
      return result;
    }
  }
  auto conclude = [&](PortfolioResult result) {
    result.seconds = clock.seconds();
    if (cache_) {
      cache_->store(key, CachedVerdict{result.verdict, result.upper_bound,
                                       result.has_value, result.max_value,
                                       result.engine_name, result.seconds});
    }
    return result;
  };

  // ---- Hoisted per-query work (computed once, handed to every engine).
  SymbolicPropagator propagator(net);
  const SymbolicBounds root_sb = propagator.propagate(region.box);
  const Interval root_iv =
      SymbolicPropagator::objective_interval(root_sb, region.box, expr.terms);

  const std::optional<Incumbent> sample = warm_start_sweep(net, region, expr);

  EngineOutcome root_o;
  root_o.engine = PortfolioEngine::kRoot;
  root_o.ran = true;
  root_o.upper_bound = root_iv.hi;
  root_o.has_value = sample.has_value();
  if (sample) {
    root_o.max_value = sample->value;
    root_o.witness = sample->x;
  }
  root_o.detail = "root symbolic bound + warm-start sweep";
  root_o.verdict = decide_verdict(threshold, root_o.has_value,
                                  root_o.max_value, root_o.upper_bound);
  root_o.decided = root_o.verdict != Verdict::kUnknown;
  root_o.seconds = clock.seconds();

  // Root fast path: the hoisted work alone decided — no race needed.
  if (root_o.decided) return conclude(merge(std::move(root_o), {}, threshold));

  // ---- The race.
  SharedIncumbent shared(3);
  if (sample) shared.publish_value(sample->value);

  std::vector<EngineOutcome> outs(3);
  outs[0].engine = PortfolioEngine::kInputSplit;
  outs[1].engine = PortfolioEngine::kMilp;
  outs[2].engine = PortfolioEngine::kSatQuantized;

  // Sequential schedule (racing, one worker): each engine gets an equal
  // share of the remaining budget — remaining/(engines not yet started)
  // — so a stubborn engine at the front of the schedule cannot starve
  // the ones behind it; whatever it leaves unused flows to them. A true
  // race (workers > 1) gives every engine the query's deadline: the OS
  // interleaves them and the first decision cancels the rest.
  const bool slice = options_.num_workers <= 1 && !deadline.unlimited();
  int engines_left = 0;  // assigned once the task list is known

  // Entry protocol shared by all engines: bail out before any set-up when
  // a peer already decided or the budget is gone; otherwise fix the
  // engine's deadline, which bounds its set-up and its search alike.
  auto enter = [&](EngineOutcome& o) -> std::optional<Deadline> {
    const int share = std::max(1, engines_left);
    if (slice) --engines_left;
    if (shared.cancel_flag(priority(o.engine))
            ->load(std::memory_order_acquire)) {
      o.cancelled = true;
      o.detail = "cancelled before start";
      return std::nullopt;
    }
    const double rem = deadline.remaining();
    if (!deadline.unlimited() && rem <= 1e-3) {
      o.detail = "deadline exhausted before start";
      return std::nullopt;
    }
    return slice ? Deadline(rem / share) : deadline;
  };
  // Both searches stop once their bound clears this or (input split) a
  // value exceeds it: decide_verdict() needs nothing tighter.
  const double decide_at = threshold + kProveTol;
  // Publishes an engine's verdict to the race: a decider cancels
  // everyone else (racing) or the engines at higher priority
  // (deterministic).
  auto finish = [&](EngineOutcome& o) {
    o.decided = o.verdict != Verdict::kUnknown;
    if (o.decided) shared.decide(priority(o.engine), /*cancel_all=*/!det);
  };

  auto run_input_split = [&](EngineOutcome& o) {
    const std::optional<Deadline> engine_deadline = enter(o);
    if (!engine_deadline) return;
    Stopwatch engine_clock;
    InputSplitOptions so = options_.split;
    so.time_limit_seconds = *engine_deadline;
    if (det) so.max_boxes = options_.det_max_boxes;
    so.use_symbolic = true;
    so.propagator = &propagator;
    so.cancel = shared.cancel_flag(priority(o.engine));
    so.decision_threshold = decide_at;
    so.on_incumbent = [&](double v, const linalg::Vector&) {
      shared.publish_value(v);
    };
    so.external_incumbent = nullptr;
    if (!det) {
      so.external_incumbent = [&] { return shared.best_value(); };
    }
    const InputSplitResult r =
        InputSplitVerifier(so).maximize(net, region, expr);
    o.ran = true;
    o.cancelled = r.cancelled;
    o.upper_bound = r.upper_bound;
    o.has_value = r.has_value;
    if (r.has_value) {
      o.max_value = r.max_value;
      o.witness = r.witness;
    }
    o.detail = "boxes=" + std::to_string(r.boxes_explored) +
               " pruned_symbolic=" + std::to_string(r.boxes_pruned_symbolic);
    o.seconds = engine_clock.seconds();
    o.verdict = decide_verdict(threshold, r.has_value, r.max_value,
                               r.upper_bound);
    finish(o);
  };

  auto run_milp = [&](EngineOutcome& o) {
    const std::optional<Deadline> engine_deadline = enter(o);
    if (!engine_deadline) return;
    Stopwatch engine_clock;
    VerifierOptions mo = options_.milp;
    // MilpVerifier takes seconds and starts its own clock: pass what is
    // left of the engine's deadline, never 0 (unlimited) for a spent one.
    mo.time_limit_seconds =
        engine_deadline->unlimited()
            ? 0.0
            : std::max(engine_deadline->remaining(), 1e-9);
    mo.encoder.precomputed_symbolic = &root_sb.layers;
    mo.bnb.decision_threshold = decide_at;
    if (det) mo.bnb.max_nodes = options_.det_max_nodes;
    mo.bnb.cancel = shared.cancel_flag(priority(o.engine));
    mo.on_incumbent = [&](double v, const linalg::Vector&) {
      shared.publish_value(v);
    };
    mo.bnb.external_cutoff = nullptr;
    if (!det) {
      mo.bnb.external_cutoff = [&] { return shared.best_value(); };
    }
    // The hoisted sweep is the warm start, also when it found no point;
    // the hybrid split warm start would run a second, uncancellable
    // search on the wall clock.
    mo.start = &sample;
    mo.warm_start_split_seconds = 0.0;
    const MaximizeResult r = MilpVerifier(mo).maximize(net, region, expr);
    o.ran = true;
    o.cancelled = r.cancelled;
    o.upper_bound = r.upper_bound;
    o.has_value = r.has_value;
    if (r.has_value) {
      o.max_value = r.max_value;
      o.witness = r.witness;
    }
    o.detail = "nodes=" + std::to_string(r.nodes) +
               " binaries=" + std::to_string(r.binaries);
    o.seconds = engine_clock.seconds();
    o.verdict = decide_verdict(threshold, r.has_value, r.max_value,
                               r.upper_bound,
                               r.status == milp::MilpStatus::kOptimal);
    finish(o);
  };

  SatGate gate;
  if (options_.use_sat) {
    gate = gate_sat_engine(net, property, options_, root_sb.layers, root_iv);
  }

  auto run_sat = [&](EngineOutcome& o) {
    const std::optional<Deadline> engine_deadline = enter(o);
    if (!engine_deadline) return;
    Stopwatch engine_clock;
    const double c = gate.coef;
    const double eps_out = gate.margin / c;  // error budget, output units
    const double resolution = std::ldexp(1.0, -options_.sat_frac_bits);
    CancelToken tok(*engine_deadline, shared.cancel_flag(priority(o.engine)));

    double lo = gate.out_lo;
    double hi = gate.out_hi;
    int probes = 0;
    bool budget_out = false;
    auto probe = [&](double t) {
      if (tok.should_stop()) {
        budget_out = true;
        return smt::QnnVerdict{};  // sat == kUnknown
      }
      smt::QnnVerifierOptions qo;
      qo.solver.cancel = shared.cancel_flag(priority(o.engine));
      qo.solver.time_limit_seconds = *engine_deadline;
      if (det) qo.solver.max_conflicts = options_.det_max_conflicts;
      ++probes;
      return smt::prove_quantized_output_bound(*gate.qnet, region.box,
                                               gate.out_index, t, qo);
    };
    auto witness_value = [&](const smt::QnnVerdict& v) {
      // Grid counterexamples are sound float witnesses: re-evaluate
      // through the FLOAT network so no quantization error can inflate
      // the reported value. The decoded input lies on the inward-rounded
      // grid, hence inside the (box-only) region.
      const double vf = expr.evaluate(net.forward(*v.counterexample));
      if (!o.has_value || vf > o.max_value) {
        o.has_value = true;
        o.max_value = vf;
        o.witness = *v.counterexample;
      }
      shared.publish_value(vf);
      return vf;
    };

    // Decision probe first: UNSAT at this quantized threshold proves the
    // float property outright (quantized max <= thr_q implies float max
    // <= thr_q + eps_out <= threshold).
    const double thr_q = threshold / c - eps_out;
    const smt::QnnVerdict first = probe(thr_q);
    if (first.sat == sat::SatResult::kUnsat) {
      o.decided = true;
      o.verdict = Verdict::kProved;
      hi = thr_q;
    } else if (first.sat == sat::SatResult::kSat) {
      lo = std::max(lo, std::max(first.output_value, thr_q));
      if (witness_value(first) > threshold) {
        o.decided = true;
        o.verdict = Verdict::kViolated;
      }
    } else {
      budget_out = true;
    }

    // Tightening search (binary over quantized thresholds): narrows the
    // exported bound for the merge even when the probe above already
    // failed to decide.
    while (!o.decided && !budget_out && hi - lo > resolution / 2) {
      if (!det) {
        // A peer's achieved value v floors the useful search window:
        // quantized values below v/c - eps_out cannot raise the float
        // maximum beyond what is already known.
        lo = std::max(lo, shared.best_value() / c - eps_out);
        if (hi - lo <= resolution / 2) break;
      }
      const double mid = 0.5 * (lo + hi);
      const smt::QnnVerdict v = probe(mid);
      if (v.sat == sat::SatResult::kSat) {
        lo = std::max(v.output_value, mid + resolution / 4);
        if (witness_value(v) > threshold) {
          o.decided = true;
          o.verdict = Verdict::kViolated;
        }
      } else if (v.sat == sat::SatResult::kUnsat) {
        hi = mid;
      } else {
        budget_out = true;
      }
    }

    o.ran = true;
    o.cancelled = tok.cause() == StopCause::kCancelled ||
                  shared.cancel_flag(priority(o.engine))
                      ->load(std::memory_order_acquire);
    o.upper_bound = o.verdict == Verdict::kProved
                        ? threshold
                        : std::min(root_iv.hi, c * (hi + eps_out));
    o.detail = "probes=" + std::to_string(probes) +
               " margin=" + std::to_string(gate.margin);
    o.seconds = engine_clock.seconds();
    finish(o);
  };

  std::vector<std::function<void()>> tasks;
  auto guard = [](EngineOutcome& o, auto body) {
    return [&o, body] {
      try {
        body(o);
      } catch (const Error& e) {
        // An engine that cannot run (e.g. a CNF word width past 62 bits)
        // steps aside with its typed reason; the race continues.
        o.ran = false;
        o.decided = false;
        o.detail = std::string("skipped: ") + e.what();
      }
    };
  };
  // Launch order (performance only — merge priorities and tie-breaks are
  // untouched, so the deterministic contract is unaffected): input
  // splitting excels when the box leaves most ReLUs stable (narrow
  // envelope queries close fast against the symbolic bound), while the
  // MILP's LP-tightened root handles wide boxes with many unstable
  // neurons better. Estimate the regime from the hoisted root bounds and
  // front-load the likely winner in a sequential schedule.
  std::size_t relu_total = 0;
  std::size_t relu_unstable = 0;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    if (net.layer(li).activation() != nn::Activation::kRelu) continue;
    for (const Interval& pre : root_sb.layers[li].pre) {
      ++relu_total;
      if (pre.lo < 0.0 && pre.hi > 0.0) ++relu_unstable;
    }
  }
  const bool milp_first =
      !det && relu_total > 0 && 2 * relu_unstable >= relu_total;

  auto push = [&](bool use, EngineOutcome& o, auto body) {
    if (use) {
      tasks.push_back(guard(o, body));
    } else {
      o.detail = "disabled";
    }
  };
  if (milp_first) push(options_.use_milp, outs[1], run_milp);
  push(options_.use_input_split, outs[0], run_input_split);
  if (!milp_first) push(options_.use_milp, outs[1], run_milp);
  if (options_.use_sat && gate.ok) {
    tasks.push_back(guard(outs[2], run_sat));
  } else {
    outs[2].detail = options_.use_sat ? "skipped: " + gate.reason : "disabled";
  }
  engines_left = static_cast<int>(tasks.size());

  TaskPool pool(static_cast<std::size_t>(std::max(1, options_.num_workers)));
  pool.run(tasks);

  return conclude(merge(std::move(root_o), std::move(outs), threshold));
}

}  // namespace safenn::verify
