#include "verify/verifier.hpp"

#include <algorithm>

#include "common/cancel.hpp"
#include "common/error.hpp"
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

MilpVerifier::MilpVerifier(VerifierOptions options)
    : options_(std::move(options)) {}

MaximizeResult MilpVerifier::maximize(const nn::Network& net,
                                      const InputRegion& region,
                                      const OutputExpr& expr) const {
  Stopwatch clock;
  // One deadline for the whole query: encoding, warm start and search.
  const Deadline deadline(options_.time_limit_seconds);
  EncodedNetwork enc =
      encode_network(net, region, options_.encoder,
                     CancelToken(deadline, options_.bnb.cancel));
  for (const auto& [idx, coef] : expr.terms) {
    require(idx >= 0 &&
                static_cast<std::size_t>(idx) < enc.output_vars.size(),
            "MilpVerifier::maximize: output index out of range");
    enc.model.set_objective(enc.output_vars[static_cast<std::size_t>(idx)],
                            coef);
  }
  enc.model.set_maximize(true);

  milp::BnbOptions bnb = options_.bnb;
  bnb.time_limit_seconds = deadline;
  bnb.branch_priority = enc.branch_priority;

  // Warm start: the best of N concrete executions is a feasible incumbent.
  if (options_.warm_start_samples > 0) {
    Rng rng(options_.warm_start_seed);
    linalg::Vector best_x;
    double best_val = 0.0;
    bool have = false;
    for (long t = 0; t < options_.warm_start_samples; ++t) {
      linalg::Vector x(net.input_size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.uniform(region.box[i].lo, region.box[i].hi);
      }
      if (!region.contains(x)) continue;  // side constraints may reject
      const double val = expr.evaluate(net.forward(x));
      if (!have || val > best_val) {
        have = true;
        best_val = val;
        best_x = std::move(x);
      }
    }
    const double split_seconds =
        std::min(options_.warm_start_split_seconds, deadline.remaining());
    if (split_seconds > 0.0) {
      InputSplitOptions split_opts;
      split_opts.time_limit_seconds = split_seconds;
      split_opts.gap_tol = 1e-3;
      split_opts.num_workers = options_.num_workers;
      const InputSplitResult sr =
          InputSplitVerifier(split_opts).maximize(net, region, expr);
      if (sr.has_value && (!have || sr.max_value > best_val)) {
        have = true;
        best_val = sr.max_value;
        best_x = sr.witness;
      }
    }
    if (have) {
      bnb.initial_solution = enc.assignment_from_input(net, best_x);
    }
  }

  const milp::MilpResult r = milp::BranchAndBound(bnb).solve(enc.model);

  MaximizeResult out;
  out.status = r.status;
  out.seconds = clock.seconds();
  out.nodes = r.nodes_explored;
  out.lp_iterations = r.lp_iterations;
  out.binaries = enc.num_binaries;
  out.upper_bound = r.best_bound;
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

  if (m.status == milp::MilpStatus::kInfeasible) {
    // Empty assumption region: vacuously true.
    out.verdict = Verdict::kProved;
    return out;
  }
  if (m.has_value && m.max_value > property.threshold) {
    out.verdict = Verdict::kViolated;
    out.counterexample = m.witness;
    out.violation_value = m.max_value;
    return out;
  }
  if (m.status == milp::MilpStatus::kOptimal) {
    // Exact maximum <= threshold (network-evaluated at the argmax and
    // certified by the MILP bound).
    out.verdict = (m.upper_bound <= property.threshold + 1e-6)
                      ? Verdict::kProved
                      : Verdict::kUnknown;
    return out;
  }
  // Threshold reached, or a time/node limit: the dual bound may still
  // prove the property.
  if (m.upper_bound <= property.threshold) {
    out.verdict = Verdict::kProved;
    return out;
  }
  out.verdict = Verdict::kUnknown;
  return out;
}

double IntervalVerifier::upper_bound(const nn::Network& net,
                                     const InputRegion& region,
                                     const OutputExpr& expr) const {
  return linear_output_bounds(net, region.box, expr.terms).hi;
}

Verdict IntervalVerifier::prove(const nn::Network& net,
                                const SafetyProperty& property) const {
  const double ub = upper_bound(net, property.region, property.expr);
  return ub <= property.threshold ? Verdict::kProved : Verdict::kUnknown;
}

}  // namespace safenn::verify
