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

struct VerifierOptions {
  double time_limit_seconds = 0.0;  // <= 0: unlimited
  EncoderOptions encoder;
  /// The time limit is overwritten from above; prove() sets the decision
  /// threshold to the property's threshold.
  milp::BnbOptions bnb;
  /// Warm start: sample this many region points, seed branch-and-bound
  /// with the best concrete network execution (0 disables).
  long warm_start_samples = 200;
  std::uint64_t warm_start_seed = 12345;
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
  long lp_iterations = 0;
  std::size_t binaries = 0;
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
  /// time_limit_seconds starts here and covers the encoding too.
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

  /// kProved when the interval bound already clears the threshold,
  /// else kUnknown (never kViolated: the analysis cannot witness).
  Verdict prove(const nn::Network& net, const SafetyProperty& property) const;
};

}  // namespace safenn::verify
