// Portfolio verification: race every engine, share what each learns.
//
// The Table II regime (wider layers, harder properties, per-query
// time-outs) is exactly where a single strategy stalls: MILP
// branch-and-bound, input-splitting with symbolic pruning, and the
// SAT/quantized CNF path each dominate on different queries, and picking
// one up front means paying the worst case on the others. PortfolioVerifier
// runs all applicable engines on one query over the shared TaskPool with a
// lock-protected SharedIncumbent between them: any engine's concrete
// incumbent immediately tightens the others' pruning tests (an externally
// achieved value prunes exactly like a native incumbent, because it is
// achievable), any engine's proven bound is merged, and the first engine
// to decide cancels the rest through the typed CancelToken flags.
//
// Two modes, one merge rule:
//
//  - racing (default): wall-clock deadline, full incumbent sharing, the
//    first decider cancels everyone. The verdict is sound and, because
//    every engine is sound, independent of which engine got there first —
//    but reported bounds reflect whatever each engine had when cancelled,
//    so they are not bitwise-reproducible across runs.
//  - deterministic: engines run on deterministic budgets (node/box/
//    conflict caps, no wall clock), external values are not injected, and
//    a decider at priority p cancels only engines at priority > p. The
//    merge then consumes only engines at priority <= min decider priority
//    — every one of which ran to its deterministic termination — which
//    makes verdict, bound, AND winning engine bit-identical for any
//    worker count or scheduling (the property test_portfolio asserts).
//
// Every search stops once it has answered "max <= threshold?" (the
// engines' decision thresholds), not when it has pinned the maximum: a
// proved query's upper_bound is sound and at or below the threshold, not
// the tightest bound reachable by the deadline. Racing mode fixes one
// deadline instant when prove() starts; every engine's set-up (MILP
// encoding, SAT circuit build) and search is measured against it.
//
// Merge rule (both modes): first-to-prove wins, lowest priority breaking
// ties; with no decider, report the tightest merged bound and which
// engine produced it. Engine priority order is kInputSplit < kMilp <
// kSatQuantized — cheapest-to-cancel last, the engine that usually wins
// the wide-layer queries first.
//
// The hoisted work every engine used to re-derive is computed once per
// query: one SymbolicPropagator, one root symbolic propagation (feeding
// the MILP big-M seed, the split verifier, the SAT word-width/margin
// analysis, and an instant root-level proof when the box already closes),
// and one warm_start_sweep whose best value seeds all engines.
//
// The portfolio schedules the engines' public searches:
// InputSplitVerifier::maximize and MilpVerifier::maximize, with the
// hoisted work, the deadline, the cancel flag and the shared incumbent
// passed through their options. Every verdict, the engines' and the
// merge's, comes from decide_verdict().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "verify/cache.hpp"
#include "verify/input_split.hpp"
#include "verify/property.hpp"
#include "verify/verifier.hpp"

namespace safenn::verify {

/// The racing engines, in priority order (= launch order, = merge
/// tie-break order). kRoot is the pseudo-engine for per-query hoisted
/// work: the root symbolic bound and the warm-start sample sweep.
enum class PortfolioEngine {
  kInputSplit = 0,
  kMilp = 1,
  kSatQuantized = 2,
  kRoot = 3,
};

const char* to_string(PortfolioEngine engine);

/// Cross-engine blackboard: what one engine learns that another reads
/// mid-search. Value side: the best concrete expr value proven achievable
/// in-region (network-evaluated — LP/SAT tolerances cannot inflate it),
/// behind a mutex. Cancellation side: one flag per engine, atomics that
/// engines poll lock-free from CancelToken (release on set, acquire on
/// load — the flag is a pure signal). Bounds and witnesses travel in each
/// engine's EngineOutcome to the merge, not through here.
class SharedIncumbent {
 public:
  explicit SharedIncumbent(int num_engines);

  /// Max-merge a concrete in-region value.
  void publish_value(double value);
  /// Best published value, -inf when none. Safe to call from any engine's
  /// pruning hot loop (one mutex acquisition).
  double best_value() const;

  /// Record a decision at `priority`. cancel_all (racing mode) raises
  /// every other engine's flag; otherwise (deterministic mode) only
  /// engines at strictly higher priority are cancelled, so everything at
  /// or below the winning priority still terminates deterministically.
  void decide(int priority, bool cancel_all);

  const std::atomic<bool>* cancel_flag(int engine) const {
    return flags_[static_cast<std::size_t>(engine)].get();
  }

 private:
  mutable std::mutex mu_;
  double value_;
  std::vector<std::unique_ptr<std::atomic<bool>>> flags_;
};

struct PortfolioOptions {
  /// Racing-mode wall-clock limit per query (<= 0: unlimited), fixed as
  /// one instant when prove() starts; engine set-up counts against it.
  /// A sequential schedule (1 worker) gives each engine a share of what
  /// remains when it starts.
  double time_limit_seconds = 0.0;
  /// Deterministic mode: budgets instead of the wall clock, no external
  /// value injection, priority-scoped cancellation (header comment).
  bool deterministic = false;
  /// Workers racing the engines. Never affects the verdict; in
  /// deterministic mode it affects nothing at all (the test suite runs
  /// 1/2/4 and asserts bit-equality).
  int num_workers = 3;
  bool use_input_split = true;
  bool use_milp = true;
  bool use_sat = true;
  /// Deterministic-mode budgets (ignored in racing mode, where the nested
  /// option structs' own caps apply).
  long det_max_boxes = 4000;
  long det_max_nodes = 4000;
  std::int64_t det_max_conflicts = 200000;
  /// SAT engine gate: quantization precision and the circuit-size cap
  /// (total weight count) above which the CNF path is not attempted.
  int sat_frac_bits = 4;
  std::size_t sat_max_weights = 4000;
  /// Nested per-engine options. Overwritten per query: the time limit,
  /// cancel flag, propagator or symbolic seed, decision threshold,
  /// incumbent hooks, external incumbent or cutoff (unset in
  /// deterministic mode), (deterministic mode) the box/node caps, and the
  /// MILP's warm start: always the hoisted sweep, never the hybrid split
  /// warm start (so milp.num_workers is unused).
  InputSplitOptions split;
  VerifierOptions milp;
};

/// What one engine contributed to one query.
struct EngineOutcome {
  PortfolioEngine engine = PortfolioEngine::kRoot;
  bool ran = false;        // applicable and actually executed
  bool decided = false;    // produced kProved/kViolated on its own
  Verdict verdict = Verdict::kUnknown;
  double upper_bound = 0.0;  // sound bound on max expr (when ran)
  bool has_value = false;
  double max_value = 0.0;  // network-evaluated, in-region (when has_value)
  linalg::Vector witness;
  bool cancelled = false;  // stopped by a peer's decision
  double seconds = 0.0;
  std::string detail;      // nodes/boxes/probes or the typed skip reason
};

struct PortfolioResult {
  Verdict verdict = Verdict::kUnknown;
  /// Deterministic merge: lowest-priority decider, else the engine that
  /// produced the tightest merged bound.
  PortfolioEngine winner = PortfolioEngine::kRoot;
  std::string engine_name;   // to_string(winner), or the cached engine
  double upper_bound = 0.0;  // tightest merged sound bound
  bool has_value = false;
  double max_value = 0.0;
  linalg::Vector witness;
  bool from_cache = false;
  bool timed_out = false;  // no engine decided
  double seconds = 0.0;
  std::vector<EngineOutcome> engines;  // per-engine evidence (fresh runs)
};

/// Races the engines on one query; consults/feeds `cache` when given
/// (not owned, may be null; access is serialized by the caller).
class PortfolioVerifier {
 public:
  explicit PortfolioVerifier(PortfolioOptions options = {},
                             VerificationCache* cache = nullptr);

  /// Decides "forall x in region: expr(N(x)) <= threshold" for
  /// piecewise-linear networks.
  PortfolioResult prove(const nn::Network& net,
                        const SafetyProperty& property) const;

 private:
  PortfolioOptions options_;
  VerificationCache* cache_;
};

}  // namespace safenn::verify
