// Verification front-end: the Sec. II(B) "formal analysis" step.
//
// Two engines:
//  - MilpVerifier: sound and complete for ReLU networks (ATVA'17 MILP
//    encoding + branch-and-bound). Computes exact output maxima (Table II
//    column "maximum lateral velocity") and proves/refutes output bounds
//    (Table II's final "prove <= 3 m/s" row), subject to a time limit
//    (the paper's 4x60 instance timed out, too).
//  - IntervalVerifier: sound, incomplete, near-instant static analysis;
//    works for smooth activations as well.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "milp/branch_and_bound.hpp"
#include "nn/network.hpp"
#include "verify/milp_encoder.hpp"
#include "verify/property.hpp"

namespace safenn::verify {

enum class Verdict {
  kProved,     // property holds on the whole region
  kViolated,   // concrete counterexample found
  kUnknown,    // time-out or incompleteness
};

std::string to_string(Verdict v);

/// Slack on a sound bound: "max <= t" is proved once the bound is at most
/// t + kProveTol. The searches' decision thresholds use the same slack.
constexpr double kProveTol = 1e-9;

/// The one verdict rule for "forall x in region: expr(N(x)) <= t", fed by
/// whatever an engine (or a merge of engines) established:
///  - kViolated when `value`, network-evaluated at an in-region point
///    (has_value), exceeds t;
///  - kProved when `bound`, a sound upper bound on the maximum, is at most
///    t + kProveTol, or at most t + 1e-6 when it is the bound of an exact
///    MILP optimum (`milp_optimal`; its incumbent is network-evaluated);
///  - kUnknown otherwise.
Verdict decide_verdict(double threshold, bool has_value, double value,
                       double bound, bool milp_optimal = false);

/// The warm-start sweep: kWarmStartSamples draws, uniform over the box
/// (Rng seeded with kWarmStartSeed), run as one batch; the first strict
/// maximum of expr among the draws inside the region wins.
constexpr long kWarmStartSamples = 200;
constexpr std::uint64_t kWarmStartSeed = 12345;

/// A concrete execution: input `x` in the region and expr's value there.
struct Incumbent {
  double value = 0.0;
  linalg::Vector x;
};

/// The sweep's best execution, or nullopt when no draw lies in the region.
std::optional<Incumbent> warm_start_sweep(const nn::Network& net,
                                          const InputRegion& region,
                                          const OutputExpr& expr);

struct VerifierOptions {
  double time_limit_seconds = 0.0;  // <= 0: unlimited
  EncoderOptions encoder;
  /// The time limit, branch priority and initial solution are overwritten
  /// from above; prove() sets the decision threshold to the property's
  /// threshold.
  milp::BnbOptions bnb;
  /// Called whenever the search finds a better incumbent that lies in the
  /// region, with its input and network-evaluated value (a portfolio
  /// publishes it to its peers). Replaces bnb.on_incumbent when set.
  std::function<void(double value, const linalg::Vector& witness)>
      on_incumbent;
  /// Warm start: a warm_start_sweep() result already computed by the
  /// caller (a portfolio hoists one per query). Branch-and-bound starts
  /// from its point, or from none when it holds no point. Must outlive
  /// the call. Null: maximize() runs warm_start_sweep() itself.
  const std::optional<Incumbent>* start = nullptr;
  /// Hybrid warm start: additionally run the input-splitting engine for
  /// this many seconds and take its witness when better (0 disables).
  /// Input splitting excels at finding strong incumbents; the MILP then
  /// only has to close the dual bound.
  double warm_start_split_seconds = 0.0;
  /// Worker threads for the input-splitting warm start. Does not affect
  /// results (see InputSplitOptions::num_workers).
  int num_workers = 1;
};

/// Result of maximizing a linear output functional over an input region.
struct MaximizeResult {
  milp::MilpStatus status = milp::MilpStatus::kTimeLimitNoSolution;
  /// Best value found (valid when has_value).
  double max_value = 0.0;
  /// Proven upper bound on the true maximum.
  double upper_bound = 0.0;
  bool has_value = false;
  /// Input witness achieving max_value (when has_value).
  linalg::Vector witness;
  double seconds = 0.0;
  long nodes = 0;
  /// Simplex iterations: the LP bound tightening's, then the search's.
  long lp_iterations = 0;
  std::size_t binaries = 0;
  /// True when bnb.cancel stopped the search (bounds are sound snapshots).
  bool cancelled = false;
};

/// Result of a prove/refute query for expr <= threshold.
struct ProveResult {
  Verdict verdict = Verdict::kUnknown;
  /// Counterexample input (when kViolated).
  std::optional<linalg::Vector> counterexample;
  /// expr value at the counterexample, network-evaluated.
  double violation_value = 0.0;
  double seconds = 0.0;
  long nodes = 0;
};

/// Complete MILP-based verifier for piecewise-linear networks.
class MilpVerifier {
 public:
  explicit MilpVerifier(VerifierOptions options = {});

  /// Exact maximum of expr(N(x)) over x in region (Table II query).
  /// time_limit_seconds starts here and covers the encoding too. An empty
  /// region reports kInfeasible with upper_bound -inf.
  MaximizeResult maximize(const nn::Network& net, const InputRegion& region,
                          const OutputExpr& expr) const;

  /// Decides "forall x in region: expr(N(x)) <= threshold". The search
  /// stops once its dual bound clears the threshold (see
  /// BnbOptions::decision_threshold) instead of proving the maximum.
  ProveResult prove(const nn::Network& net, const SafetyProperty& property) const;

 private:
  VerifierOptions options_;
};

/// Incomplete static-analysis verifier via interval propagation.
class IntervalVerifier {
 public:
  /// Sound overestimate of the maximum of expr over the region's box
  /// (side constraints are ignored — still sound).
  double upper_bound(const nn::Network& net, const InputRegion& region,
                     const OutputExpr& expr) const;

  /// decide_verdict() on the interval bound: kProved when it clears the
  /// threshold, else kUnknown (never kViolated: the analysis cannot
  /// witness).
  Verdict prove(const nn::Network& net, const SafetyProperty& property) const;
};

}  // namespace safenn::verify
