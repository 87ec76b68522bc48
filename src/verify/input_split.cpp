#include "verify/input_split.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/stopwatch.hpp"
#include "common/task_pool.hpp"
#include "lp/simplex.hpp"
#include "verify/interval.hpp"
#include "verify/milp_encoder.hpp"
#include "verify/symbolic.hpp"

namespace safenn::verify {
namespace {

struct BoxNode {
  Box box;
  double bound;  // parent/own bound (upper)
  long id;
};

/// Everything one worker computes about one box. Pure function of the
/// box and the round-start incumbent — no shared state is touched until
/// the sequential merge, which is what makes the trajectory independent
/// of the worker count.
struct BoxOutcome {
  bool deadline_hit = false;
  bool pruned_no_lp = false;  // symbolic bound alone discarded the box
  bool infeasible = false;
  long lp_iterations = 0;
  double box_bound = 0.0;
  bool has_xhat = false;
  bool xhat_in_region = false;
  linalg::Vector xhat;
  double xhat_val = 0.0;
  bool has_probe = false;
  bool probe_in_region = false;
  linalg::Vector probe;
  double probe_val = 0.0;
  bool split = false;
  std::size_t split_dim = 0;
  double split_mid = 0.0;
};

}  // namespace

InputSplitVerifier::InputSplitVerifier(InputSplitOptions options)
    : options_(options) {}

InputSplitResult InputSplitVerifier::maximize(const nn::Network& net,
                                              const InputRegion& region,
                                              const OutputExpr& expr) const {
  check_query(net, region, expr);
  Stopwatch clock;
  // Deadline + portfolio-cancel, latched once per round (should_stop) on
  // the merge thread; workers use the thread-safe check_now() before a box.
  CancelToken stop(options_.time_limit_seconds, options_.cancel);
  lp::SimplexSolver solver;
  const double gap_tol = options_.gap_tol;
  const int chunk = std::max(1, options_.chunk_size);
  TaskPool pool(static_cast<std::size_t>(std::max(1, options_.num_workers)));
  std::optional<SymbolicPropagator> local_symbolic;
  const SymbolicPropagator* symbolic =
      options_.use_symbolic ? options_.propagator : nullptr;
  if (options_.use_symbolic && symbolic == nullptr) {
    local_symbolic.emplace(net);
    symbolic = &*local_symbolic;
  }

  InputSplitResult result;
  // Best peer-achieved value (racing portfolio); refreshed once per round
  // so every pruning decision inside a round sees the same reference.
  double external = -std::numeric_limits<double>::infinity();
  auto refresh_external = [&] {
    if (!options_.external_incumbent) return;
    const double v = options_.external_incumbent();
    if (std::isfinite(v) && v > external) external = v;
  };
  // Pruning reference: the best value proven achievable in-region, here
  // or by a peer. Discarding a box whose bound cannot beat it keeps the
  // final upper bound sound because the reference itself is achievable.
  auto prune_has = [&] { return result.has_value || std::isfinite(external); };
  auto prune_best = [&] {
    return result.has_value ? std::max(result.max_value, external) : external;
  };
  auto cmp = [](const BoxNode& a, const BoxNode& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.id < b.id;
  };
  std::priority_queue<BoxNode, std::vector<BoxNode>, decltype(cmp)> open(cmp);
  long next_id = 0;
  open.push(BoxNode{region.box, std::numeric_limits<double>::infinity(),
                    next_id++});

  auto consider = [&](linalg::Vector& x, double val) {
    if (!result.has_value || val > result.max_value) {
      result.has_value = true;
      result.max_value = val;
      result.witness = x;
      if (options_.on_incumbent) options_.on_incumbent(val, result.witness);
    }
  };

  /// Pure per-box evaluation; reads only round-start state.
  auto evaluate_box = [&](const BoxNode& node, BoxOutcome& o, bool round_has,
                          double round_best) {
    if (stop.check_now()) {
      o.deadline_hit = true;
      return;
    }
    // Bounds for this box. Symbolic tightening yields (a) fewer unstable
    // neurons, so smaller and tighter triangle LPs, and (b) an
    // objective-level upper bound that can discard the box before any LP
    // exists at all.
    std::vector<LayerBounds> bounds;
    o.box_bound = node.bound;
    if (symbolic) {
      SymbolicBounds sb = symbolic->propagate(node.box);
      o.box_bound = std::min(
          o.box_bound,
          SymbolicPropagator::objective_interval(sb, node.box, expr.terms).hi);
      bounds = std::move(sb.layers);
      if (round_has && o.box_bound <= round_best + gap_tol) {
        o.pruned_no_lp = true;
        return;
      }
    } else {
      bounds = propagate_bounds(net, node.box);
    }

    // Triangle-relaxation LP over the box, objective expr.
    lp::Problem relax = relaxation_lp(node.box, region.constraints);
    relax.set_maximize(true);
    std::vector<int> prev(net.input_size());
    for (std::size_t i = 0; i < prev.size(); ++i) prev[i] = static_cast<int>(i);
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      std::vector<int> cur(net.layer(li).out_size());
      for (std::size_t r = 0; r < cur.size(); ++r) {
        cur[r] = append_relaxed_neuron(relax, net.layer(li), r, prev,
                                       bounds[li].pre[r]);
      }
      prev = std::move(cur);
    }
    for (const auto& [idx, coef] : expr.terms) {
      relax.set_objective(prev[static_cast<std::size_t>(idx)], coef);
    }
    const lp::Solution s = solver.solve(relax);
    o.lp_iterations = s.iterations;
    if (s.status == lp::SolveStatus::kInfeasible) {
      o.infeasible = true;
      return;
    }
    // Non-optimal, non-infeasible = numerical trouble: keep the tightest
    // bound known so far and split anyway.
    if (s.status == lp::SolveStatus::kOptimal) {
      o.box_bound = std::min(o.box_bound, s.objective);
      linalg::Vector x_hat(net.input_size());
      for (std::size_t d = 0; d < x_hat.size(); ++d) {
        x_hat[d] = std::clamp(s.values[d], node.box[d].lo, node.box[d].hi);
      }
      o.xhat_val = expr.evaluate(net.forward(x_hat));
      o.xhat_in_region = region.contains(x_hat);
      o.xhat = std::move(x_hat);
      o.has_xhat = true;
    }
    // Prune against the round-start incumbent improved by this box's own
    // candidate (both are task-local, so this stays deterministic).
    double best = round_has ? round_best
                            : -std::numeric_limits<double>::infinity();
    if (o.xhat_in_region) best = std::max(best, o.xhat_val);
    if (std::isfinite(best) && o.box_bound <= best + gap_tol) return;

    // Split on the input dimension with the largest smear
    // (width x |d expr / d x_i| at the box midpoint).
    linalg::Vector probe(net.input_size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      probe[i] = 0.5 * (node.box[i].lo + node.box[i].hi);
    }
    o.probe_val = expr.evaluate(net.forward(probe));
    o.probe_in_region = region.contains(probe);
    linalg::Vector grad(net.input_size());
    for (const auto& [idx, coef] : expr.terms) {
      grad.add_scaled(coef,
                      net.input_gradient(probe, static_cast<std::size_t>(idx)));
    }
    o.probe = std::move(probe);
    o.has_probe = true;
    double best_smear = -1.0;
    for (std::size_t i = 0; i < node.box.size(); ++i) {
      const double width = node.box[i].width();
      if (width <= 1e-9) continue;
      const double smear = width * (std::abs(grad[i]) + 1e-6);
      if (smear > best_smear) {
        best_smear = smear;
        o.split_dim = i;
      }
    }
    if (best_smear < 0.0) return;  // point box: value already considered
    o.split = true;
    o.split_mid =
        0.5 * (node.box[o.split_dim].lo + node.box[o.split_dim].hi);
  };

  bool timed_out = false;
  bool decided = false;  // decision_threshold answered before the gap closed
  // Set once a box leaves the queue bounded only by the pruning reference
  // (discarded against it, or a point box whose value was considered):
  // from then on prune_best() + gap_tol also bounds the true maximum.
  bool pruned = false;
  // Sound bound on the true maximum while boxes remain open.
  auto open_bound = [&] {
    double b = open.empty() ? -std::numeric_limits<double>::infinity()
                            : open.top().bound;
    if (pruned) b = std::max(b, prune_best() + gap_tol);
    return b;
  };
  double global_bound = std::numeric_limits<double>::infinity();
  std::vector<BoxNode> batch;
  std::vector<BoxOutcome> outcomes;
  std::vector<std::function<void()>> tasks;

  while (!open.empty()) {
    refresh_external();
    global_bound = open.top().bound;
    if (prune_has() && global_bound <= prune_best() + gap_tol) {
      global_bound = prune_best();
      break;  // nothing left can improve beyond the tolerance
    }
    // Deadline/budget/cancel checks once per round (= up to chunk
    // boxes), not per box; workers re-check before starting expensive
    // work when a limit is actually set.
    if (stop.should_stop() ||
        (options_.max_boxes > 0 &&
         result.boxes_explored >= options_.max_boxes)) {
      timed_out = true;
      break;
    }

    // Pop this round's chunk. Everything below the first prunable node
    // is prunable too (best-first order), so stop there.
    batch.clear();
    while (!open.empty() && static_cast<int>(batch.size()) < chunk) {
      if (prune_has() && open.top().bound <= prune_best() + gap_tol) {
        break;
      }
      batch.push_back(open.top());
      open.pop();
    }

    const bool round_has = prune_has();
    const double round_best = prune_best();
    outcomes.assign(batch.size(), BoxOutcome{});
    tasks.clear();
    tasks.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      tasks.push_back([&, i] {
        evaluate_box(batch[i], outcomes[i], round_has, round_best);
      });
    }
    pool.run(tasks);

    // Merge in pop order — the only place shared state is touched, so
    // the trajectory is identical for any worker count.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      BoxNode& node = batch[i];
      BoxOutcome& o = outcomes[i];
      if (o.deadline_hit) {
        // Unprocessed: return the box so the remaining queue still
        // covers the whole unresolved region (keeps upper_bound sound).
        timed_out = true;
        open.push(std::move(node));
        continue;
      }
      ++result.boxes_explored;
      if (o.pruned_no_lp) {
        ++result.boxes_pruned_symbolic;
        pruned = true;
        continue;
      }
      result.lp_iterations += o.lp_iterations;
      if (o.infeasible) continue;
      if (o.has_xhat && o.xhat_in_region) consider(o.xhat, o.xhat_val);
      if (prune_has() && o.box_bound <= prune_best() + gap_tol) {
        pruned = true;
        continue;  // pruned against the live (deterministic) incumbent
      }
      if (o.has_probe && o.probe_in_region) consider(o.probe, o.probe_val);
      if (!o.split) {  // point box: its value was considered above
        pruned = true;
        continue;
      }
      BoxNode left{node.box, o.box_bound, next_id++};
      left.box[o.split_dim].hi = o.split_mid;
      BoxNode right{std::move(node.box), o.box_bound, next_id++};
      right.box[o.split_dim].lo = o.split_mid;
      open.push(std::move(left));
      open.push(std::move(right));
    }
    if (timed_out) break;
    // Decision exits, checked only at the round boundary so the whole
    // batch is merged first and the remaining queue still covers every
    // unresolved box (which is what keeps open_bound() sound).
    if (options_.decision_threshold && !open.empty()) {
      const double t = *options_.decision_threshold;
      if ((result.has_value && result.max_value > t) || open_bound() <= t) {
        decided = true;
        break;
      }
    }
  }

  result.seconds = clock.seconds();
  if (timed_out || decided) {
    // Latch the cause if a worker saw the flag before the round check.
    if (timed_out) stop.should_stop();
    result.cancelled = stop.cause() == StopCause::kCancelled;
    result.exact = false;
    result.upper_bound = open_bound();
    return result;
  }
  if (!prune_has()) {
    // Queue exhausted with every box infeasible: the region is empty.
    result.exact = true;
    result.upper_bound = -std::numeric_limits<double>::infinity();
    return result;
  }
  result.exact = true;
  // prune_best() (not max_value) so a run closed against a peer's
  // external incumbent still reports a bound above every achievable
  // value, including the peer's.
  result.upper_bound = std::min(global_bound, prune_best() + gap_tol);
  return result;
}

Verdict InputSplitVerifier::prove(const nn::Network& net,
                                  const SafetyProperty& property,
                                  InputSplitResult* detail) const {
  InputSplitOptions options = options_;
  options.decision_threshold = property.threshold;
  const InputSplitResult r = InputSplitVerifier(std::move(options))
                                 .maximize(net, property.region, property.expr);
  if (detail) *detail = r;
  return decide_verdict(property.threshold, r.has_value, r.max_value,
                        r.upper_bound);
}

}  // namespace safenn::verify
