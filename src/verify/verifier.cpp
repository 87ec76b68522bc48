#include "verify/verifier.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "verify/input_split.hpp"

namespace safenn::verify {

std::string to_string(Verdict v) {
  switch (v) {
    case Verdict::kProved: return "proved";
    case Verdict::kViolated: return "violated";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

Verdict decide_verdict(double threshold, bool has_value, double value,
                       double bound, bool milp_optimal) {
  if (has_value && value > threshold) return Verdict::kViolated;
  if (bound <= threshold + kProveTol ||
      (milp_optimal && bound <= threshold + 1e-6)) {
    return Verdict::kProved;
  }
  return Verdict::kUnknown;
}

std::optional<Incumbent> warm_start_sweep(const nn::Network& net,
                                          const InputRegion& region,
                                          const OutputExpr& expr) {
  Rng rng(kWarmStartSeed);
  linalg::Matrix xs(static_cast<std::size_t>(kWarmStartSamples),
                    net.input_size());
  for (std::size_t r = 0; r < xs.rows(); ++r) {
    for (std::size_t i = 0; i < xs.cols(); ++i) {
      xs(r, i) = rng.uniform(region.box[i].lo, region.box[i].hi);
    }
  }
  // Each row of the batch is bitwise equal to forward() on it.
  const linalg::Matrix ys = net.forward_batch(xs);
  std::optional<Incumbent> best;
  for (std::size_t r = 0; r < xs.rows(); ++r) {
    linalg::Vector x = xs.row(r);
    if (!region.contains(x)) continue;  // side constraints may reject
    const double val = expr.evaluate(ys.row(r));
    if (!best || val > best->value) best = Incumbent{val, std::move(x)};
  }
  return best;
}

MilpVerifier::MilpVerifier(VerifierOptions options)
    : options_(std::move(options)) {}

MaximizeResult MilpVerifier::maximize(const nn::Network& net,
                                      const InputRegion& region,
                                      const OutputExpr& expr) const {
  check_query(net, region, expr);
  Stopwatch clock;
  // One deadline for the whole query: encoding, warm start and search.
  const Deadline deadline(options_.time_limit_seconds);
  EncodedNetwork enc =
      encode_network(net, region, options_.encoder,
                     CancelToken(deadline, options_.bnb.cancel));
  for (const auto& [idx, coef] : expr.terms) {
    enc.model.set_objective(enc.output_vars[static_cast<std::size_t>(idx)],
                            coef);
  }
  enc.model.set_maximize(true);

  milp::BnbOptions bnb = options_.bnb;
  bnb.time_limit_seconds = deadline;
  bnb.branch_priority = enc.branch_priority;
  if (options_.on_incumbent) {
    bnb.on_incumbent = [&](const milp::MilpResult& r) {
      const linalg::Vector x = enc.extract_input(r.values);
      if (region.contains(x)) {
        options_.on_incumbent(expr.evaluate(net.forward(x)), x);
      }
    };
  }

  // Warm start: a concrete execution is a feasible incumbent.
  std::optional<Incumbent> swept;
  if (!options_.start) swept = warm_start_sweep(net, region, expr);
  const std::optional<Incumbent>& sweep =
      options_.start ? *options_.start : swept;
  const linalg::Vector* start = sweep ? &sweep->x : nullptr;
  const double split_seconds =
      std::min(options_.warm_start_split_seconds, deadline.remaining());
  InputSplitResult sr;
  if (split_seconds > 0.0) {
    InputSplitOptions split_opts;
    split_opts.time_limit_seconds = split_seconds;
    split_opts.gap_tol = 1e-3;
    split_opts.num_workers = options_.num_workers;
    sr = InputSplitVerifier(split_opts).maximize(net, region, expr);
    if (sr.has_value && (!sweep || sr.max_value > sweep->value)) {
      start = &sr.witness;
    }
  }
  bnb.initial_solution =
      start ? enc.assignment_from_input(net, *start) : std::vector<double>{};

  const milp::MilpResult r = milp::BranchAndBound(bnb).solve(enc.model);

  MaximizeResult out;
  out.status = r.status;
  out.seconds = clock.seconds();
  out.nodes = r.nodes_explored;
  out.lp_iterations = enc.lp_iterations + r.lp_iterations;
  out.binaries = enc.num_binaries;
  out.cancelled = r.cancelled;
  // The maximum over an empty region is -inf.
  out.upper_bound = r.status == milp::MilpStatus::kInfeasible
                        ? -std::numeric_limits<double>::infinity()
                        : r.best_bound;
  if (r.has_solution()) {
    out.has_value = true;
    // Report the value the *network* actually produces at the witness, so
    // LP tolerances cannot inflate the answer.
    out.witness = enc.extract_input(r.values);
    out.max_value = expr.evaluate(net.forward(out.witness));
  }
  return out;
}

ProveResult MilpVerifier::prove(const nn::Network& net,
                                const SafetyProperty& property) const {
  Stopwatch clock;
  VerifierOptions options = options_;
  options.bnb.decision_threshold = property.threshold;
  const MaximizeResult m = MilpVerifier(std::move(options))
                               .maximize(net, property.region, property.expr);
  ProveResult out;
  out.seconds = clock.seconds();
  out.nodes = m.nodes;
  out.verdict =
      decide_verdict(property.threshold, m.has_value, m.max_value,
                     m.upper_bound, m.status == milp::MilpStatus::kOptimal);
  if (out.verdict == Verdict::kViolated) {
    out.counterexample = m.witness;
    out.violation_value = m.max_value;
  }
  return out;
}

double IntervalVerifier::upper_bound(const nn::Network& net,
                                     const InputRegion& region,
                                     const OutputExpr& expr) const {
  return linear_output_bounds(net, region.box, expr.terms).hi;
}

Verdict IntervalVerifier::prove(const nn::Network& net,
                                const SafetyProperty& property) const {
  return decide_verdict(property.threshold, false, 0.0,
                        upper_bound(net, property.region, property.expr));
}

}  // namespace safenn::verify
