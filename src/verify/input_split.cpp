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
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/task_pool.hpp"
#include "lp/simplex.hpp"
#include "verify/interval.hpp"
#include "verify/symbolic.hpp"

namespace safenn::verify {
namespace {

/// Base LP shared by every box of one maximize() call: the input
/// variables (bounds overwritten per box) plus the region's side
/// constraints. The rows and the objective structure are identical for
/// every box, so they are built exactly once per call instead of per box.
lp::Problem build_base_lp(const nn::Network& net, const InputRegion& region) {
  lp::Problem p;
  p.set_maximize(true);
  for (std::size_t i = 0; i < net.input_size(); ++i) {
    p.add_variable(region.box[i].lo, region.box[i].hi);
  }
  for (const InputConstraint& c : region.constraints) {
    lp::LinearTerms terms;
    terms.reserve(c.terms.size());
    for (const auto& [idx, coef] : c.terms) {
      require(idx >= 0 && static_cast<std::size_t>(idx) < net.input_size(),
              "InputSplitVerifier: side-constraint index out of range");
      terms.emplace_back(idx, coef);  // input variables are 0..n-1
    }
    p.add_constraint(std::move(terms), c.relation, c.rhs);
  }
  return p;
}

/// Triangle-relaxation LP over one box: copies the base LP, narrows the
/// input-variable bounds to the box and appends the per-layer relaxation
/// rows plus the expr objective.
lp::Problem build_triangle_lp(const nn::Network& net, const Box& box,
                              const lp::Problem& base,
                              const std::vector<LayerBounds>& bounds,
                              const OutputExpr& expr) {
  lp::Problem p = base;
  std::vector<int> prev;
  prev.reserve(net.input_size());
  for (std::size_t i = 0; i < net.input_size(); ++i) {
    const int v = static_cast<int>(i);
    p.variable(v).lower = box[i].lo;
    p.variable(v).upper = box[i].hi;
    prev.push_back(v);
  }

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const nn::DenseLayer& layer = net.layer(li);
    std::vector<int> cur(layer.out_size(), -1);
    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      const Interval pre = bounds[li].pre[r];
      lp::LinearTerms z_terms;
      for (std::size_t c = 0; c < layer.in_size(); ++c) {
        const double w = layer.weights()(r, c);
        if (w != 0.0) z_terms.emplace_back(prev[c], w);
      }
      const double b = layer.biases()[r];
      if (layer.activation() == nn::Activation::kIdentity) {
        const int y = p.add_variable(pre.lo, pre.hi);
        lp::LinearTerms eq{{y, 1.0}};
        for (const auto& [var, coef] : z_terms) eq.emplace_back(var, -coef);
        p.add_constraint(std::move(eq), lp::Relation::kEq, b);
        cur[r] = y;
        continue;
      }
      if (pre.hi <= 0.0) {
        cur[r] = p.add_variable(0.0, 0.0);
        continue;
      }
      if (pre.lo >= 0.0) {
        const int y = p.add_variable(pre.lo, pre.hi);
        lp::LinearTerms eq{{y, 1.0}};
        for (const auto& [var, coef] : z_terms) eq.emplace_back(var, -coef);
        p.add_constraint(std::move(eq), lp::Relation::kEq, b);
        cur[r] = y;
        continue;
      }
      // Unstable: y >= z, y >= 0 (bound), y <= hi (z - lo) / (hi - lo).
      const int y = p.add_variable(0.0, pre.hi);
      lp::LinearTerms ge{{y, 1.0}};
      for (const auto& [var, coef] : z_terms) ge.emplace_back(var, -coef);
      p.add_constraint(std::move(ge), lp::Relation::kGe, b);
      const double slope = pre.hi / (pre.hi - pre.lo);
      lp::LinearTerms le{{y, 1.0}};
      for (const auto& [var, coef] : z_terms) {
        le.emplace_back(var, -slope * coef);
      }
      p.add_constraint(std::move(le), lp::Relation::kLe,
                       slope * (b - pre.lo));
      cur[r] = y;
    }
    prev = cur;
  }
  // Objective over the output-layer variables (they are the last widths).
  for (const auto& [idx, coef] : expr.terms) {
    p.set_objective(prev[static_cast<std::size_t>(idx)], coef);
  }
  return p;
}

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
  require(region.dims() == net.input_size(),
          "InputSplitVerifier: region dimension mismatch");
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    require(nn::is_piecewise_linear(net.layer(li).activation()),
            "InputSplitVerifier: only ReLU/identity networks supported");
  }
  for (const auto& [idx, coef] : expr.terms) {
    (void)coef;
    require(idx >= 0 && static_cast<std::size_t>(idx) < net.output_size(),
            "InputSplitVerifier: output index out of range");
  }

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
  const lp::Problem base_lp = build_base_lp(net, region);

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

    const lp::Problem relax =
        build_triangle_lp(net, node.box, base_lp, bounds, expr);
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
  if (r.has_value && r.max_value > property.threshold) {
    return Verdict::kViolated;
  }
  if (r.exact || r.upper_bound <= property.threshold) {
    return r.upper_bound <= property.threshold + 1e-9 ? Verdict::kProved
                                                      : Verdict::kUnknown;
  }
  return Verdict::kUnknown;
}

}  // namespace safenn::verify
