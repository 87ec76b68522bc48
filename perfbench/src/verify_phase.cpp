// The verify phase: a property battery raced cold through
// PortfolioVerifier (3 workers, no cache, the battery's deadline per
// query), and the traced run's deterministic work-count pass.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "host.hpp"
#include "phases.hpp"
#include "stats.hpp"
#include "verify/input_split.hpp"
#include "verify/portfolio.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

namespace verify = safenn::verify;

/// Passes over a battery; metrics are medians over passes. The short
/// battery (two seconds a pass) gets five: its median query is one of
/// three racing queries a few tens of milliseconds apart.
int passes_for(const Battery& battery) {
  return battery.queries.size() <= 5 ? 5 : 2;
}

bool contradicts(verify::Verdict a, verify::Verdict b) {
  return (a == verify::Verdict::kProved && b == verify::Verdict::kViolated) ||
         (a == verify::Verdict::kViolated && b == verify::Verdict::kProved);
}

const char* span_name(verify::PortfolioEngine e) {
  switch (e) {
    case verify::PortfolioEngine::kRoot: return "verify.root";
    case verify::PortfolioEngine::kInputSplit: return "verify.split";
    case verify::PortfolioEngine::kMilp: return "verify.milp";
    case verify::PortfolioEngine::kSatQuantized: return "verify.sat";
  }
  return "verify.?";
}

std::size_t engine_slot(verify::PortfolioEngine e) {
  switch (e) {
    case verify::PortfolioEngine::kRoot: return 0;
    case verify::PortfolioEngine::kInputSplit: return 1;
    case verify::PortfolioEngine::kMilp: return 2;
    case verify::PortfolioEngine::kSatQuantized: return 3;
  }
  return 0;
}

const char* const kSlotNames[4] = {"root", "split", "milp", "sat"};

/// Value of "key=<n>" inside an EngineOutcome detail string (-1 if absent).
long detail_count(const std::string& detail, const std::string& key) {
  const std::size_t at = detail.find(key + "=");
  if (at == std::string::npos) return -1;
  return std::atol(detail.c_str() + at + key.size() + 1);
}

}  // namespace

void verify_phase(RunContext& ctx, const Battery& battery,
                  const std::map<std::string, const safenn::nn::Network*>&
                      nets) {
  Results& res = ctx.results;
  const int passes = passes_for(battery);
  const std::size_t nq = battery.queries.size();
  std::vector<double> sums, cpus, undecided_counts;
  std::vector<std::vector<double>> per_query(nq);
  double engine_s[4] = {0, 0, 0, 0};
  double wins[4] = {0, 0, 0, 0};
  double winner_s = 0.0, all_s = 0.0;
  std::size_t mismatches = 0, contradictions = 0;
  LayerAccumulator layers;
  const std::size_t first_span = ctx.tracer.spans().size();
  const double phase_start = now_seconds();
  std::printf("verify phase: %zu queries x %d passes, deadline %.2f s\n", nq,
              passes, battery.deadline_seconds);

  for (int pass = 0; pass < passes; ++pass) {
    double sum = 0.0, undecided = 0.0;
    const double cpu0 = process_cpu_seconds();
    for (std::size_t i = 0; i < nq; ++i) {
      const BatteryQuery& q = battery.queries[i];
      const verify::SafetyProperty prop = make_property(battery, q);
      verify::PortfolioOptions po;
      po.time_limit_seconds = battery.deadline_seconds;
      po.num_workers = 3;
      const ScopedSpan span(ctx.tracer, "verify.query", -1, i);
      const double t0 = now_seconds();
      verify::PortfolioResult r;
      bool error = false;
      try {
        r = verify::PortfolioVerifier(po).prove(*nets.at(q.net), prop);
      } catch (const std::exception& e) {
        // The portfolio's own engines-disagree assertion lands here.
        error = true;
        std::printf("  %-28s ERROR %s\n", q.name.c_str(), e.what());
      }
      const double wall = now_seconds() - t0;
      sum += wall;
      per_query[i].push_back(wall);
      if (error) {
        ++contradictions;
        res.attempted(1, 1);
        continue;
      }
      res.attempted(1, 0);
      // Undecided at the deadline is a measurement (verify_undecided), not
      // a failure; a decided verdict must be the property's truth.
      if (r.verdict == verify::Verdict::kUnknown) {
        undecided += 1.0;
      } else if (q.truth != verify::Verdict::kUnknown &&
                 r.verdict != q.truth) {
        ++mismatches;
      }
      // Engine evidence: no two decided engines may contradict.
      double root_end = t0;
      double query_engine_s = 0.0;
      for (const verify::EngineOutcome& o : r.engines) {
        if (!o.ran) continue;
        engine_s[engine_slot(o.engine)] += o.seconds;
        query_engine_s += o.seconds;
        if (o.engine == verify::PortfolioEngine::kRoot) {
          root_end = t0 + o.seconds;
        }
        for (const verify::EngineOutcome& p : r.engines) {
          if (o.decided && p.decided && contradicts(o.verdict, p.verdict)) {
            ++contradictions;
          }
        }
      }
      wins[engine_slot(r.winner)] += 1.0;
      all_s += query_engine_s;
      for (const verify::EngineOutcome& o : r.engines) {
        if (o.ran && o.engine == r.winner) winner_s += o.seconds;
      }
      if (ctx.tracer.enabled()) {
        // Engine spans from their reported durations: the root pass
        // first, then the racing engines from the end of the root pass.
        for (const verify::EngineOutcome& o : r.engines) {
          if (!o.ran) continue;
          const double s = o.engine == verify::PortfolioEngine::kRoot
                               ? t0
                               : root_end;
          ctx.tracer.add(span_name(o.engine), s, s + o.seconds, span.index(),
                         i);
        }
      }
      if (pass == 0) {
        std::printf("  %-28s %-8s (truth %-8s) by %-13s %7.3f s\n",
                    q.name.c_str(), verdict_name(r.verdict),
                    truth_name(q.truth), r.engine_name.c_str(), wall);
      }
    }
    sums.push_back(sum);
    cpus.push_back(process_cpu_seconds() - cpu0);
    undecided_counts.push_back(undecided);
  }
  const double phase_end = now_seconds();

  res.check(mismatches == 0,
            "verify: " + std::to_string(mismatches) +
                " decided verdicts differ from the battery's true verdicts");
  res.check(contradictions == 0,
            "verify: " + std::to_string(contradictions) +
                " engine contradictions or errors");

  std::vector<double> query_medians;
  for (const auto& v : per_query) query_medians.push_back(median(v));
  res.metric("verify_s", median(sums), "s");
  res.metric("verify_query_p50_s", median(query_medians), "s");
  res.metric("verify_undecided", median(undecided_counts), "count");
  res.metric("verify_cpu_s", median(cpus), "s");
  const double p = static_cast<double>(passes);
  for (std::size_t s = 0; s < 4; ++s) {
    res.metric(std::string("verify.engine_s.") + kSlotNames[s],
               engine_s[s] / p, "s");
    res.metric(std::string("verify.wins.") + kSlotNames[s], wins[s] / p,
               "count");
  }
  res.metric("verify.useful_frac", all_s > 0.0 ? winner_s / all_s : 0.0,
             "fraction");
  res.record("verify_passes_s", [&] {
    std::string s = "[";
    for (std::size_t i = 0; i < sums.size(); ++i) {
      s += (i ? ", " : "") + json_num(sums[i]);
    }
    return s + "]";
  }());
  res.record("verify_queries", std::to_string(nq));
  res.record("verify_query_s", [&] {
    std::string s = "{";
    for (std::size_t i = 0; i < nq; ++i) {
      s += (i ? ", " : "") + json_str(battery.queries[i].name) + ": [";
      for (std::size_t p = 0; p < per_query[i].size(); ++p) {
        s += (p ? ", " : "") + json_num(per_query[i][p]);
      }
      s += "]";
    }
    return s + "}";
  }());
  if (ctx.tracer.enabled()) {
    // This phase's spans; parent indices are tracer-global, so rebase.
    std::vector<Span> mine(ctx.tracer.spans().begin() + first_span,
                           ctx.tracer.spans().end());
    for (Span& s : mine) {
      if (s.parent >= 0) s.parent -= static_cast<int>(first_span);
    }
    layers.add_tree(mine);
    layers.print("verify", phase_start - ctx.tracer.epoch(),
                 phase_end - ctx.tracer.epoch());
  }
}

void verify_count_pass(RunContext& ctx, const Battery& battery,
                       const std::map<std::string, const safenn::nn::Network*>&
                           nets) {
  // Fixed caps and no wall clock: every count below repeats exactly.
  // The SAT path runs ~1 ms per conflict on these circuits, so its cap
  // is what keeps the pass within a run's budget.
  constexpr long kMaxBoxes = 200;
  constexpr long kMaxNodes = 100;
  constexpr std::int64_t kMaxConflicts = 200;
  Results& res = ctx.results;
  double boxes = 0, pruned = 0, lp_split = 0, split_s = 0;
  double nodes = 0, lp_milp = 0, milp_s = 0, probes = 0;
  for (const BatteryQuery& q : battery.queries) {
    const verify::SafetyProperty prop = make_property(battery, q);
    const safenn::nn::Network& net = *nets.at(q.net);
    verify::InputSplitOptions so;
    so.max_boxes = kMaxBoxes;
    so.num_workers = 1;
    const verify::InputSplitResult s =
        verify::InputSplitVerifier(so).maximize(net, prop.region, prop.expr);
    boxes += static_cast<double>(s.boxes_explored);
    pruned += static_cast<double>(s.boxes_pruned_symbolic);
    lp_split += static_cast<double>(s.lp_iterations);
    split_s += s.seconds;

    verify::VerifierOptions vo;
    vo.bnb.max_nodes = kMaxNodes;
    const verify::MaximizeResult m =
        verify::MilpVerifier(vo).maximize(net, prop.region, prop.expr);
    nodes += static_cast<double>(m.nodes);
    lp_milp += static_cast<double>(m.lp_iterations);
    milp_s += m.seconds;

    verify::PortfolioOptions po;
    po.deterministic = true;
    po.num_workers = 1;
    po.use_input_split = false;
    po.use_milp = false;
    po.det_max_conflicts = kMaxConflicts;
    const double t0 = now_seconds();
    const verify::PortfolioResult r =
        verify::PortfolioVerifier(po).prove(net, prop);
    long q_probes = 0;
    for (const verify::EngineOutcome& o : r.engines) {
      if (o.ran && o.engine == verify::PortfolioEngine::kSatQuantized) {
        q_probes = std::max<long>(0, detail_count(o.detail, "probes"));
      }
    }
    probes += static_cast<double>(q_probes);
    std::printf("  count %-26s boxes %5ld (%.2fs)  nodes %5ld (%.2fs)  "
                "sat probes %3ld (%.2fs)\n",
                q.name.c_str(), s.boxes_explored, s.seconds, m.nodes,
                m.seconds, q_probes, now_seconds() - t0);
    std::fflush(stdout);
  }
  res.metric("verify.boxes", boxes, "count");
  res.metric("verify.pruned_frac", boxes > 0 ? pruned / boxes : 0.0,
             "fraction");
  res.metric("lp.iterations", lp_split + lp_milp, "count");
  res.metric("lp.iters_per_s",
             split_s + milp_s > 0 ? (lp_split + lp_milp) / (split_s + milp_s)
                                  : 0.0,
             "1/s");
  res.metric("milp.nodes", nodes, "count");
  res.metric("milp.nodes_per_s", milp_s > 0 ? nodes / milp_s : 0.0, "1/s");
  res.metric("sat.probes", probes, "count");
  std::printf("count pass: boxes %.0f pruned %.0f lp_iters %.0f nodes %.0f "
              "sat probes %.0f\n",
              boxes, pruned, lp_split + lp_milp, nodes, probes);
}

}  // namespace perfbench
