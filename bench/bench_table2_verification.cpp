// Table II reproduction: "Results of verifying ANN-based motion
// predictors" — for each I4xN predictor, the maximum mean lateral
// velocity when a vehicle exists on the left, and the verification time;
// plus the final row's "prove that the lateral velocity can never be
// larger than 3 m/s" query on the largest network.
//
// The paper ran a commercial MILP solver on a 12-core VM; absolute times
// differ here (from-scratch simplex, one container). What reproduces is
// the shape: time grows steeply with width, and the largest instances hit
// the time limit (the paper's I4x60 row timed out, too). Rows that finish
// within budget are proven optima; time-limited rows report the best
// value found and the remaining dual bound.
//
// The run ends with the symbolic-tightening ablation: the same trained
// predictors, queried through the input-splitting engine on local
// envelopes of the Table II region, once with symbolic bounds and once
// interval-only. Boxes explored, LP iterations, wall time and verdicts
// land in BENCH_verify.json, together with a 1/2/4-worker determinism
// check of the parallel engine.
//
// Budgets (env-overridable; `--smoke` shrinks everything for CI):
//   SAFENN_T2_LIMIT        seconds per mixture component    (default 20)
//   SAFENN_T2_WIDTHS       "10,20,25,40,50,60" row widths   (paper set)
//   SAFENN_T2_EXTRA        also run an exact small-width series (default 1)
//   SAFENN_T2_WORKERS      input-split worker threads       (default 2)
//   SAFENN_T2_ABLATION_WIDTHS   predictor widths for the ablation ("4,5,6")
//   SAFENN_T2_ENVELOPE     envelope half-width as a fraction of the
//                          data-domain half-width            (default 0.10)
//   SAFENN_T2_ABLATION_MAXBOXES  box budget per query       (default 20000)
//   SAFENN_T2_ABLATION_GAP  ablation gap tolerance            (default 0.1)
//   SAFENN_T2_JSON         output path                (BENCH_verify.json)
//
// The run then races the verification portfolio (verify/portfolio.hpp)
// against each engine alone on a query battery — including networks and
// regions where the root box no longer closes — and exercises the
// content-addressed verification cache with a warm second pass:
//   SAFENN_T2_PORTFOLIO_WIDTHS  battery widths              ("4,6,10")
//   SAFENN_T2_PORTFOLIO_LIMIT   per-query deadline, seconds  (default 10)
//   SAFENN_T2_CACHE_DIR    cache directory     (.safenn_vcache_bench)
//   SAFENN_T2_PORTFOLIO_JSON    output path     (BENCH_portfolio.json)
// The process exits nonzero if a portfolio verdict contradicts any single
// engine, if the portfolio's wall-clock exceeds the best single engine by
// more than the overhead budget, if the warm pass resolves fewer than 90%
// of queries from cache (or not bitwise-identically), or if the
// deterministic merge differs across 1/2/4 workers.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "highway/safety_rules.hpp"
#include "verify/cache.hpp"
#include "verify/input_split.hpp"
#include "verify/portfolio.hpp"
#include "verify/symbolic.hpp"

using namespace safenn;

namespace {

std::vector<std::size_t> parse_widths(const char* env, const char* fallback) {
  const char* v = std::getenv(env);
  std::stringstream ss(v && *v ? v : fallback);
  std::vector<std::size_t> widths;
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) widths.push_back(static_cast<std::size_t>(std::stoul(tok)));
  }
  return widths;
}

core::TableTwoRow run_row(const data::Dataset& data,
                          const highway::SceneEncoder& encoder,
                          const verify::InputRegion& region,
                          std::size_t width, double per_component_limit,
                          int workers) {
  const core::TrainedPredictor predictor =
      bench::train_predictor(data, width);
  verify::VerifierOptions opts;
  opts.time_limit_seconds = per_component_limit;
  opts.warm_start_split_seconds = per_component_limit * 0.2;
  opts.num_workers = workers;
  const core::PredictorVerification v =
      core::verify_max_lateral_velocity(predictor, encoder, opts, &region);
  return core::make_table_two_row("I4x" + std::to_string(width), v);
}

/// Box-only local envelope of `box`: every dimension shrunk around its
/// midpoint to `fraction` of its half-width. Small envelopes stabilize
/// most neurons, which is exactly the regime where the input-splitting
/// engine converges on 84-dim scenes — a local-robustness-style query.
verify::InputRegion envelope_region(const verify::Box& box, double fraction) {
  verify::InputRegion region;
  region.box = box;
  for (auto& iv : region.box) {
    const double mid = 0.5 * (iv.lo + iv.hi);
    const double half = 0.5 * (iv.hi - iv.lo) * fraction;
    iv = verify::Interval{mid - half, mid + half};
  }
  return region;
}

struct AblationSide {
  bool exact = false;
  double max_value = 0.0;
  double upper_bound = 0.0;
  long boxes = 0;
  long pruned_symbolic = 0;
  long lp_iterations = 0;
  double seconds = 0.0;
};

AblationSide run_side(const nn::Network& net,
                      const verify::InputRegion& region,
                      const verify::OutputExpr& expr,
                      const verify::InputSplitOptions& opts) {
  const verify::InputSplitResult r =
      verify::InputSplitVerifier(opts).maximize(net, region, expr);
  AblationSide s;
  s.exact = r.exact;
  s.max_value = r.max_value;
  s.upper_bound = r.upper_bound;
  s.boxes = r.boxes_explored;
  s.pruned_symbolic = r.boxes_pruned_symbolic;
  s.lp_iterations = r.lp_iterations;
  s.seconds = r.seconds;
  return s;
}

void json_side(std::ostringstream& os, const char* key,
               const AblationSide& s) {
  os << "\"" << key << "\": {\"exact\": " << (s.exact ? "true" : "false")
     << ", \"max_value\": " << s.max_value
     << ", \"upper_bound\": " << s.upper_bound
     << ", \"boxes_explored\": " << s.boxes
     << ", \"boxes_pruned_symbolic\": " << s.pruned_symbolic
     << ", \"lp_iterations\": " << s.lp_iterations
     << ", \"seconds\": " << s.seconds << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) {
    // CI-sized budgets; explicit env still wins (overwrite = 0).
    setenv("SAFENN_T2_LIMIT", "2", 0);
    setenv("SAFENN_T2_WIDTHS", "10", 0);
    setenv("SAFENN_T2_EXTRA", "0", 0);
    setenv("SAFENN_T2_ABLATION_WIDTHS", "4", 0);
    setenv("SAFENN_T2_ABLATION_MAXBOXES", "1500", 0);
    setenv("SAFENN_DATA_STEPS", "60", 0);
    setenv("SAFENN_T2_PORTFOLIO_WIDTHS", "4", 0);
    setenv("SAFENN_T2_PORTFOLIO_LIMIT", "2", 0);
  }

  const double limit = bench::env_double("SAFENN_T2_LIMIT", 20.0);
  const int workers =
      static_cast<int>(bench::env_long("SAFENN_T2_WORKERS", 2));
  highway::SceneEncoder encoder;
  const highway::BuiltDataset built = bench::standard_dataset(encoder);
  const verify::Box domain = highway::data_domain_box(built.data, encoder);
  const verify::InputRegion region =
      highway::make_vehicle_on_left_region(encoder, domain);

  std::printf("== Table II: verifying ANN-based motion predictors ==\n");
  std::printf("   (per-component time budget %.0fs, %d split workers; "
              "SAFENN_T2_LIMIT / SAFENN_T2_WORKERS override)\n\n",
              limit, workers);

  std::vector<core::TableTwoRow> rows;
  if (bench::env_long("SAFENN_T2_EXTRA", 1)) {
    std::printf("-- exact supplement (widths small enough to prove "
                "optimality on this machine) --\n");
    for (std::size_t width : parse_widths("SAFENN_T2_EXTRA_WIDTHS", "4,5,6")) {
      rows.push_back(
          run_row(built.data, encoder, region, width, limit * 3, workers));
      std::printf("%s", core::render_table_two({rows.back()}).c_str());
    }
    std::printf("\n");
  }

  std::printf("-- paper-scale rows --\n");
  for (std::size_t width : parse_widths("SAFENN_T2_WIDTHS", "10,20,25,40,50,60")) {
    rows.push_back(
        run_row(built.data, encoder, region, width, limit, workers));
    std::printf("%s", core::render_table_two({rows.back()}).c_str());
    std::fflush(stdout);
  }

  std::printf("\n== full table ==\n%s", core::render_table_two(rows).c_str());

  // Final Table II row: prove lateral velocity can never exceed 3 m/s on
  // the largest network (the paper proved this for I4x60 in 11059.8s).
  {
    const std::size_t width =
        parse_widths("SAFENN_T2_WIDTHS", "10,20,25,40,50,60").back();
    const core::TrainedPredictor predictor =
        bench::train_predictor(built.data, width);
    verify::VerifierOptions opts;
    opts.time_limit_seconds = limit;
    opts.warm_start_split_seconds = limit * 0.2;
    opts.num_workers = workers;
    const core::PredictorProof proof = core::prove_lateral_velocity_bound(
        predictor, encoder, 3.0, opts, &region);
    std::printf("\nI4x%zu | prove lateral velocity can never be larger "
                "than 3 m/s | %s (%.1fs)\n",
                width, verify::to_string(proof.verdict).c_str(),
                proof.seconds);
  }

  {
    CsvWriter csv;
    core::table_two_csv(rows, csv);
    std::ostringstream os;
    csv.write(os);
    std::printf("\n== CSV ==\n%s", os.str().c_str());
  }

  // -------------------------------------------------------------------
  // Symbolic-tightening ablation + parallel determinism (BENCH_verify).
  // -------------------------------------------------------------------
  std::printf("\n== input-split ablation: symbolic vs interval bounds ==\n");
  const double envelope = bench::env_double("SAFENN_T2_ENVELOPE", 0.10);
  const long max_boxes = bench::env_long("SAFENN_T2_ABLATION_MAXBOXES", 20000);
  // Loose enough (5 cm/s on a lateral velocity) that the interval-only
  // baseline can close it too — the comparison is exact-vs-exact, not
  // converged-vs-budget-capped.
  const double gap = bench::env_double("SAFENN_T2_ABLATION_GAP", 0.1);
  const verify::InputRegion local = envelope_region(domain, envelope);

  verify::InputSplitOptions base_opts;
  base_opts.gap_tol = gap;
  base_opts.max_boxes = max_boxes;
  base_opts.num_workers = workers;

  long total_boxes_sym = 0, total_boxes_int = 0;
  long total_lp_sym = 0, total_lp_int = 0;
  double total_sec_sym = 0.0, total_sec_int = 0.0;
  long num_queries = 0, both_exact = 0;
  // On queries both engines close, the verdicts are identical by
  // construction and the proven bounds must agree within the tolerance.
  bool bounds_within_gap = true;
  // On every query (capped or not), the engines must not contradict:
  // neither side's concrete witness may exceed the other's proven bound.
  bool cross_consistent = true;
  std::ostringstream queries_json;
  bool first_query = true;

  for (std::size_t width :
       parse_widths("SAFENN_T2_ABLATION_WIDTHS", "4,5,6")) {
    const core::TrainedPredictor predictor =
        bench::train_predictor(built.data, width);
    for (std::size_t k = 0; k < predictor.head.components(); ++k) {
      verify::OutputExpr expr;
      expr.terms = {{static_cast<int>(predictor.head.mean_index(
                         k, highway::kActionLateral)),
                     1.0}};
      verify::InputSplitOptions sym_opts = base_opts;
      sym_opts.use_symbolic = true;
      verify::InputSplitOptions int_opts = base_opts;
      int_opts.use_symbolic = false;
      const AblationSide s =
          run_side(predictor.network, local, expr, sym_opts);
      const AblationSide b =
          run_side(predictor.network, local, expr, int_opts);
      total_boxes_sym += s.boxes;
      total_boxes_int += b.boxes;
      total_lp_sym += s.lp_iterations;
      total_lp_int += b.lp_iterations;
      total_sec_sym += s.seconds;
      total_sec_int += b.seconds;
      ++num_queries;
      if (s.exact && b.exact) {
        ++both_exact;
        if (std::abs(s.upper_bound - b.upper_bound) > 2.0 * gap + 1e-9) {
          bounds_within_gap = false;
        }
      }
      if (s.max_value > b.upper_bound + 1e-6 ||
          b.max_value > s.upper_bound + 1e-6) {
        cross_consistent = false;
      }
      std::printf("I4x%zu/c%zu: symbolic %ld boxes (%ld LP-free) %ld LP it "
                  "%.2fs | interval %ld boxes %ld LP it %.2fs\n",
                  width, k, s.boxes, s.pruned_symbolic, s.lp_iterations,
                  s.seconds, b.boxes, b.lp_iterations, b.seconds);
      if (!first_query) queries_json << ",\n";
      first_query = false;
      queries_json << "    {\"query\": \"I4x" << width << "/c" << k
                   << "\", ";
      json_side(queries_json, "symbolic", s);
      queries_json << ", ";
      json_side(queries_json, "interval", b);
      queries_json << "}";
    }
  }

  const double boxes_reduction =
      total_boxes_int > 0
          ? 100.0 * (1.0 - static_cast<double>(total_boxes_sym) /
                               static_cast<double>(total_boxes_int))
          : 0.0;
  const double lp_reduction =
      total_lp_int > 0
          ? 100.0 * (1.0 - static_cast<double>(total_lp_sym) /
                               static_cast<double>(total_lp_int))
          : 0.0;
  std::printf("\nsymbolic vs interval: boxes %ld -> %ld (-%.1f%%), "
              "LP iterations %ld -> %ld (-%.1f%%)\n",
              total_boxes_int, total_boxes_sym, boxes_reduction,
              total_lp_int, total_lp_sym, lp_reduction);

  // Parallel determinism spot check: the same query must yield identical
  // results for 1/2/4 workers (see InputSplitOptions::num_workers).
  bool determinism_ok = true;
  {
    const core::TrainedPredictor predictor = bench::train_predictor(
        built.data,
        parse_widths("SAFENN_T2_ABLATION_WIDTHS", "4,5,6").front());
    verify::OutputExpr expr;
    expr.terms = {{static_cast<int>(predictor.head.mean_index(
                       0, highway::kActionLateral)),
                   1.0}};
    verify::InputSplitResult ref;
    bool first = true;
    for (int w : {1, 2, 4}) {
      verify::InputSplitOptions opts = base_opts;
      opts.num_workers = w;
      const verify::InputSplitResult r =
          verify::InputSplitVerifier(opts).maximize(predictor.network, local,
                                                    expr);
      if (first) {
        ref = r;
        first = false;
        continue;
      }
      if (r.exact != ref.exact || r.max_value != ref.max_value ||
          r.upper_bound != ref.upper_bound ||
          r.boxes_explored != ref.boxes_explored ||
          r.lp_iterations != ref.lp_iterations) {
        determinism_ok = false;
      }
    }
    std::printf("parallel determinism (1/2/4 workers): %s\n",
                determinism_ok ? "identical" : "MISMATCH");
  }

  // -------------------------------------------------------------------
  // Portfolio race + verification cache (BENCH_portfolio.json).
  //
  // Battery design for one physical core: the portfolio launches engines
  // sequentially in priority order (num_workers = 1), so a query the
  // input-split engine decides costs ~its solo time (the others cancel at
  // entry), and a query nobody decides costs ~the shared deadline — the
  // same as every single engine. That keeps the portfolio within the
  // overhead budget while the verdict cross-check still runs every
  // applicable engine standalone on every query.
  // -------------------------------------------------------------------
  bool portfolio_ok = true;
  std::ostringstream pjson;
  {
    const double pT = bench::env_double("SAFENN_T2_PORTFOLIO_LIMIT", 10.0);
    const auto pwidths = parse_widths("SAFENN_T2_PORTFOLIO_WIDTHS", "4,6,10");
    const char* cache_env = std::getenv("SAFENN_T2_CACHE_DIR");
    const std::string cache_dir =
        cache_env && *cache_env ? cache_env : ".safenn_vcache_bench";
    // Additive slack on the overhead check: hoisted-work jitter and timer
    // noise on sub-second queries; the 1.25x factor is the real budget.
    const double overhead_factor = 1.25;
    const double overhead_slack = 0.25;
    const double spread_threshold = 0.5;

    std::printf("\n== portfolio race & verification cache ==\n");
    std::printf("   (deadline %.0fs/query, cache dir %s)\n\n", pT,
                cache_dir.c_str());

    struct PQuery {
      std::string name;
      std::size_t width = 0;
      const nn::Network* net = nullptr;
      verify::SafetyProperty prop;
    };
    std::vector<core::TrainedPredictor> predictors;
    predictors.reserve(pwidths.size());
    std::vector<PQuery> battery;

    auto lateral_expr = [&](const core::TrainedPredictor& p) {
      verify::OutputExpr expr;
      expr.terms = {{static_cast<int>(
                         p.head.mean_index(0, highway::kActionLateral)),
                     1.0}};
      return expr;
    };

    for (std::size_t width : pwidths) {
      predictors.push_back(bench::train_predictor(built.data, width));
      const core::TrainedPredictor& pred = predictors.back();
      const verify::OutputExpr expr = lateral_expr(pred);
      const verify::InputRegion env_region = envelope_region(domain, envelope);

      // Root symbolic bound: thresholds above it are closed instantly by
      // the portfolio's hoisted work; the interesting battery sits below.
      const verify::SymbolicPropagator sym(pred.network);
      const double root_hi =
          verify::SymbolicPropagator::objective_interval(
              sym.propagate(env_region.box), env_region.box, expr.terms)
              .hi;

      // Pre-pass: converge the envelope query once so the battery's
      // thresholds bracket the true maximum deterministically.
      verify::InputSplitOptions pre;
      pre.gap_tol = 0.01;
      pre.max_boxes = 200000;
      pre.time_limit_seconds = 3.0 * pT;
      const verify::InputSplitResult exact_run =
          verify::InputSplitVerifier(pre).maximize(pred.network, env_region,
                                                   expr);
      const double bound = exact_run.upper_bound;
      const double achieved = exact_run.max_value;

      PQuery proved;
      proved.name = "I4x" + std::to_string(width) + "/envelope-proved";
      proved.width = width;
      proved.net = &pred.network;
      proved.prop.name = proved.name;
      proved.prop.region = env_region;
      proved.prop.expr = expr;
      proved.prop.threshold =
          bound + std::max(0.02, 0.05 * std::max(0.0, root_hi - bound));
      battery.push_back(proved);

      PQuery violated = proved;
      violated.name = "I4x" + std::to_string(width) + "/envelope-violated";
      violated.prop.name = violated.name;
      violated.prop.threshold =
          achieved - std::max(0.02, 0.01 * std::abs(achieved));
      battery.push_back(violated);

      if (width == pwidths.front()) {
        PQuery trivial = proved;
        trivial.name = "I4x" + std::to_string(width) + "/root-closes";
        trivial.prop.name = trivial.name;
        trivial.prop.threshold = root_hi + 1.0;
        battery.push_back(trivial);
      }
    }

    // Hard query on the widest network over the full Table II region —
    // the regime where the root box no longer closes and no engine
    // terminates inside the deadline. A budgeted pre-pass finds the open
    // gap; the battery threshold sits mid-gap.
    {
      const core::TrainedPredictor& pred = predictors.back();
      const verify::OutputExpr expr = lateral_expr(pred);
      verify::InputSplitOptions pre;
      pre.gap_tol = 1e-4;
      pre.time_limit_seconds = pT;
      const verify::InputSplitResult open =
          verify::InputSplitVerifier(pre).maximize(pred.network, region, expr);
      if (!open.exact && open.has_value &&
          open.upper_bound - open.max_value > 0.05) {
        PQuery hard;
        hard.name = "I4x" + std::to_string(pwidths.back()) + "/full-timeout";
        hard.width = pwidths.back();
        hard.net = &pred.network;
        hard.prop.name = hard.name;
        hard.prop.region = region;
        hard.prop.expr = expr;
        hard.prop.threshold = 0.5 * (open.max_value + open.upper_bound);
        battery.push_back(hard);
      } else {
        std::printf("(full-region gap closed within budget; "
                    "skipping the timeout query)\n");
      }
    }

    auto run_engines = [&](const PQuery& q, bool split_on, bool milp_on,
                           bool sat_on, verify::VerificationCache* c) {
      verify::PortfolioOptions po;
      po.time_limit_seconds = pT;
      po.num_workers = 1;  // one core: sequential priority-order launch
      po.use_input_split = split_on;
      po.use_milp = milp_on;
      po.use_sat = sat_on;
      po.split.num_workers = 1;
      return verify::PortfolioVerifier(po, c).prove(*q.net, q.prop);
    };
    auto contradicts = [](verify::Verdict a, verify::Verdict b) {
      return (a == verify::Verdict::kProved && b == verify::Verdict::kViolated) ||
             (a == verify::Verdict::kViolated && b == verify::Verdict::kProved);
    };

    long contradictions = 0;
    long overhead_violations = 0;
    long not_strictly_better = 0;
    std::vector<verify::PortfolioResult> first_pass;
    first_pass.reserve(battery.size());
    verify::VerificationCache cache_a(cache_dir);
    bool first_q = true;
    for (const PQuery& q : battery) {
      struct Single {
        const char* name;
        bool applicable = false;
        verify::Verdict verdict = verify::Verdict::kUnknown;
        double seconds = 0.0;
        std::string detail{};  // the engine's nodes/boxes/probes line
      };
      Single singles[3] = {{"input_split"}, {"milp"}, {"sat_quantized"}};
      for (int e = 0; e < 3; ++e) {
        const verify::PortfolioResult r =
            run_engines(q, e == 0, e == 1, e == 2, nullptr);
        // engines[0] is the root pseudo-engine; the real engine outcome
        // sits at index 1 + its priority. "Applicable" = the engine
        // actually ran, or the hoisted root work closed the query before
        // any engine was needed.
        singles[e].applicable = r.engines.size() == 1 || r.engines[1 + e].ran;
        singles[e].verdict = r.verdict;
        singles[e].seconds = r.seconds;
        if (r.engines.size() > 1) singles[e].detail = r.engines[1 + e].detail;
      }

      const verify::PortfolioResult p =
          run_engines(q, true, true, true, &cache_a);
      first_pass.push_back(p);

      double best = 0.0, worst = 0.0;
      bool any = false;
      for (const Single& s : singles) {
        if (!s.applicable) continue;
        if (!any || s.seconds < best) best = s.seconds;
        if (!any || s.seconds > worst) worst = s.seconds;
        any = true;
        if (contradicts(p.verdict, s.verdict)) {
          ++contradictions;
          std::printf("!! %s: portfolio %s contradicts %s %s\n",
                      q.name.c_str(), to_string(p.verdict).c_str(), s.name,
                      to_string(s.verdict).c_str());
        }
      }
      const bool over =
          any && p.seconds > overhead_factor * best + overhead_slack;
      if (over) ++overhead_violations;
      const bool spread = any && (worst - best) > spread_threshold;
      const bool beats_worst = !spread || p.seconds < worst;
      if (!beats_worst) ++not_strictly_better;

      std::printf("%-28s %-9s by %-13s %6.2fs | singles", q.name.c_str(),
                  to_string(p.verdict).c_str(), p.engine_name.c_str(),
                  p.seconds);
      for (const Single& s : singles) {
        if (s.applicable) {
          std::printf(" %s=%s/%.2fs", s.name, to_string(s.verdict).c_str(),
                      s.seconds);
        } else {
          std::printf(" %s=n/a", s.name);
        }
      }
      std::printf("%s%s\n", over ? "  [OVERHEAD]" : "",
                  beats_worst ? "" : "  [NOT<WORST]");

      if (!first_q) pjson << ",\n";
      first_q = false;
      pjson << "    {\"query\": \"" << q.name << "\", \"width\": " << q.width
            << ", \"threshold\": " << q.prop.threshold
            << ", \"portfolio\": {\"verdict\": \""
            << to_string(p.verdict) << "\", \"winner\": \"" << p.engine_name
            << "\", \"upper_bound\": " << p.upper_bound
            << ", \"seconds\": " << p.seconds << "}";
      for (const Single& s : singles) {
        pjson << ", \"" << s.name << "\": ";
        if (s.applicable) {
          pjson << "{\"verdict\": \"" << to_string(s.verdict)
                << "\", \"seconds\": " << s.seconds << ", \"detail\": \""
                << s.detail << "\"}";
        } else {
          pjson << "null";
        }
      }
      pjson << ", \"overhead_ok\": " << (over ? "false" : "true")
            << ", \"beats_worst_single\": " << (beats_worst ? "true" : "false")
            << "}";
    }

    // Warm pass: a fresh cache instance on the same directory (as a CI
    // re-run would see it) must resolve the battery from disk, bitwise.
    long warm_hits = 0;
    bool warm_bitwise = true;
    {
      verify::VerificationCache cache_b(cache_dir);
      for (std::size_t i = 0; i < battery.size(); ++i) {
        const verify::PortfolioResult w =
            run_engines(battery[i], true, true, true, &cache_b);
        if (w.from_cache) ++warm_hits;
        if (w.verdict != first_pass[i].verdict ||
            w.upper_bound != first_pass[i].upper_bound ||
            w.max_value != first_pass[i].max_value) {
          warm_bitwise = false;
        }
      }
    }
    const double warm_pct =
        battery.empty() ? 100.0
                        : 100.0 * static_cast<double>(warm_hits) /
                              static_cast<double>(battery.size());

    // Deterministic-merge cross-check: verdict, bound, and winning engine
    // must be identical at 1/2/4 workers on a decided and an undecided
    // query (deterministic mode; same contract test_portfolio asserts).
    bool merge_deterministic = true;
    {
      std::vector<const PQuery*> checks;
      if (!battery.empty()) checks.push_back(&battery.front());
      if (battery.size() > 1) checks.push_back(&battery[1]);
      for (const PQuery* q : checks) {
        verify::PortfolioResult ref;
        bool first = true;
        for (int w : {1, 2, 4}) {
          verify::PortfolioOptions po;
          po.deterministic = true;
          po.num_workers = w;
          po.split.num_workers = 1;
          const verify::PortfolioResult r =
              verify::PortfolioVerifier(po).prove(*q->net, q->prop);
          if (first) {
            ref = r;
            first = false;
            continue;
          }
          if (r.verdict != ref.verdict || r.engine_name != ref.engine_name ||
              r.upper_bound != ref.upper_bound) {
            merge_deterministic = false;
          }
        }
      }
    }

    std::printf("\nportfolio: %ld contradictions, %ld overhead violations, "
                "%ld not-better-than-worst; warm pass %ld/%zu from cache "
                "(%.0f%%, bitwise %s); deterministic merge %s\n",
                contradictions, overhead_violations, not_strictly_better,
                warm_hits, battery.size(), warm_pct,
                warm_bitwise ? "ok" : "MISMATCH",
                merge_deterministic ? "identical" : "MISMATCH");

    portfolio_ok = contradictions == 0 && overhead_violations == 0 &&
                   not_strictly_better == 0 && warm_pct >= 90.0 &&
                   warm_bitwise && merge_deterministic;

    std::ostringstream summary;
    summary << "{\n  \"bench\": \"portfolio_verification\",\n"
            << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
            << "  \"deadline_seconds\": " << pT << ",\n"
            << "  \"overhead_factor\": " << overhead_factor << ",\n"
            << "  \"overhead_slack_seconds\": " << overhead_slack << ",\n"
            << "  \"cache_dir\": \"" << cache_dir << "\",\n"
            << "  \"queries\": [\n" << pjson.str() << "\n  ],\n"
            << "  \"checks\": {\"contradictions\": " << contradictions
            << ", \"overhead_violations\": " << overhead_violations
            << ", \"not_strictly_better_than_worst\": " << not_strictly_better
            << ", \"warm_cache_hit_pct\": " << warm_pct
            << ", \"warm_cache_bitwise\": " << (warm_bitwise ? "true" : "false")
            << ", \"merge_deterministic\": "
            << (merge_deterministic ? "true" : "false")
            << ", \"pass\": " << (portfolio_ok ? "true" : "false")
            << "}\n}\n";
    const char* pjson_env = std::getenv("SAFENN_T2_PORTFOLIO_JSON");
    const std::string ppath =
        pjson_env && *pjson_env ? pjson_env : "BENCH_portfolio.json";
    std::ofstream(ppath) << summary.str();
    std::printf("\n%s(written to %s)\n", summary.str().c_str(), ppath.c_str());
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"table2_verification\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"workers\": " << workers << ",\n"
       << "  \"envelope_fraction\": " << envelope << ",\n"
       << "  \"gap_tol\": " << base_opts.gap_tol << ",\n"
       << "  \"max_boxes\": " << max_boxes << ",\n"
       << "  \"queries\": [\n" << queries_json.str() << "\n  ],\n"
       << "  \"totals\": {\"boxes_interval\": " << total_boxes_int
       << ", \"boxes_symbolic\": " << total_boxes_sym
       << ", \"boxes_reduction_pct\": " << boxes_reduction
       << ", \"lp_iterations_interval\": " << total_lp_int
       << ", \"lp_iterations_symbolic\": " << total_lp_sym
       << ", \"lp_iterations_reduction_pct\": " << lp_reduction
       << ", \"seconds_interval\": " << total_sec_int
       << ", \"seconds_symbolic\": " << total_sec_sym
       << ", \"queries\": " << num_queries
       << ", \"queries_both_exact\": " << both_exact
       << ", \"verdicts_identical_on_converged\": true"
       << ", \"bounds_within_gap_tol_on_converged\": "
       << (bounds_within_gap ? "true" : "false")
       << ", \"no_cross_contradictions\": "
       << (cross_consistent ? "true" : "false") << "},\n"
       << "  \"parallel_determinism\": {\"workers_checked\": [1, 2, 4], "
       << "\"identical\": " << (determinism_ok ? "true" : "false")
       << "}\n}\n";
  const char* json_env = std::getenv("SAFENN_T2_JSON");
  const std::string path =
      json_env && *json_env ? json_env : "BENCH_verify.json";
  std::ofstream(path) << json.str();
  std::printf("\n%s(written to %s)\n", json.str().c_str(), path.c_str());
  // Determinism and the portfolio contracts are hard (budgets are not):
  // fail the run — and the CI release job — if any worker count changed
  // any result, or any portfolio check above was violated.
  return determinism_ok && portfolio_ok ? 0 : 1;
}
