// Complete verification by recursive input-domain splitting.
//
// A second, complementary engine to the MILP branch-and-bound: instead of
// branching on ReLU phase binaries with fixed big-M constants, it
// branches on *input dimensions*. Each sub-box gets fresh symbolic
// (Neurify/DeepPoly-style) bounds — so neurons stabilize as boxes shrink
// and many boxes are discarded without solving an LP at all — and a
// triangle-relaxation LP upper bound; the LP's input point, evaluated
// through the real network, supplies incumbents. Sound and complete for
// piecewise-linear networks: boxes are only discarded when their bound
// cannot beat the incumbent, and refinement makes bounds exact in the
// limit.
//
// The search runs in synchronous rounds: each round pops a fixed-size
// chunk of boxes from the best-first queue, evaluates them concurrently
// on `num_workers` threads, and merges the outcomes in pop order. All
// pruning decisions depend only on round-boundary state, so the explored
// tree — and with it the verdict, the proven upper bound, the incumbent
// max_value, and even boxes_explored — is bit-for-bit identical for any
// worker count (determinism is a hard requirement here; see DESIGN.md
// "Parallel verification & symbolic bounds"). Only chunk_size changes the
// trajectory, by making the engine evaluate boxes speculatively that a
// strictly one-at-a-time search might have pruned.
//
// This mirrors the refinement strategy of ReluVal/Neurify and is the
// engine behind the Table II rows at larger widths, where the one-shot
// MILP's relaxation is too loose (the "scalability of automated
// verification requires improvement" of paper Sec. IV(ii)).
#pragma once

#include <atomic>
#include <functional>
#include <optional>

#include "common/stopwatch.hpp"
#include "nn/network.hpp"
#include "verify/property.hpp"
#include "verify/symbolic.hpp"
#include "verify/verifier.hpp"

namespace safenn::verify {

struct InputSplitOptions {
  /// Absolute stop instant (assigning seconds starts the clock there;
  /// <= 0: unlimited). The portfolio passes its query's deadline.
  Deadline time_limit_seconds;
  /// Terminate when (global upper bound - incumbent) <= gap_tol.
  double gap_tol = 1e-4;
  long max_boxes = 0;  // <= 0: unlimited
  /// Worker threads evaluating the boxes of one round concurrently.
  /// Does NOT affect results: verdict, max_value, upper_bound and
  /// boxes_explored are identical for any value (see header comment).
  int num_workers = 1;
  /// Boxes evaluated per synchronous round. Larger chunks expose more
  /// parallelism but speculate further ahead of the incumbent; results
  /// stay sound and exact for any value, but the explored tree (and so
  /// boxes_explored) depends on it. Keep fixed for reproducibility.
  int chunk_size = 8;
  /// Symbolic bound tightening: tighter triangle LPs plus LP-free
  /// discarding of boxes whose symbolic objective bound cannot beat the
  /// incumbent. Off = plain interval bounds (the ablation baseline
  /// measured by bench_table2_verification --smoke).
  bool use_symbolic = true;
  /// Cooperative cancellation (portfolio): latched once per synchronous
  /// round via CancelToken::should_stop(); workers additionally poll
  /// check_now() before starting a box. A cancelled run exits through
  /// the timeout path, so max_value/upper_bound stay sound snapshots.
  const std::atomic<bool>* cancel = nullptr;
  /// External incumbent (portfolio racing): the best concrete value a
  /// peer engine has proven achievable inside the region. Refreshed once
  /// per round and merged into the pruning reference only — it never
  /// becomes max_value or the witness (there is no input for it here).
  /// Pruning against it is sound because the value is achievable, so any
  /// discarded box is dominated by a real point. Return -inf when none.
  /// Leave unset for bit-reproducible trajectories.
  std::function<double()> external_incumbent;
  /// Decision threshold t: stop as soon as "max <= t?" is answered,
  /// either way, instead of closing the gap to the exact maximum. Both
  /// exits are checked at the round boundary on the merge thread, so the
  /// trajectory stays identical for any worker count:
  ///   - violated: an in-region evaluation (max_value) exceeds t;
  ///   - proved: the sound global bound — the best open box's bound, and
  ///     incumbent + gap_tol once boxes were pruned against an incumbent
  ///     — is at or below t. upper_bound then reports that bound: sound
  ///     and <= t, but not the tightest bound the search would reach.
  /// Either exit leaves exact false. Unset: maximize() computes the
  /// maximum. prove() sets the property's threshold; the portfolio sets
  /// threshold + kProveTol.
  std::optional<double> decision_threshold;
  /// Optional shared symbolic propagator for `net` (the portfolio hoists
  /// one per query instead of every engine re-deriving it). Must outlive
  /// the call; ignored when use_symbolic is false. Null: built locally.
  const SymbolicPropagator* propagator = nullptr;
  /// Called (from the sequential merge, never concurrently) whenever the
  /// incumbent improves: a portfolio publishes it so peers prune sooner.
  std::function<void(double value, const linalg::Vector& witness)>
      on_incumbent;
};

struct InputSplitResult {
  bool exact = false;         // gap closed within gap_tol
  bool has_value = false;
  double max_value = 0.0;     // best network-evaluated value found
  double upper_bound = 0.0;   // proven bound on the true maximum
  linalg::Vector witness;     // input achieving max_value
  double seconds = 0.0;
  long boxes_explored = 0;
  /// Boxes discarded by the symbolic objective bound alone — each one is
  /// a triangle LP that never had to be built or solved.
  long boxes_pruned_symbolic = 0;
  long lp_iterations = 0;
  /// True when the run stopped because InputSplitOptions::cancel fired
  /// (exact is then false; bounds are sound snapshots).
  bool cancelled = false;
};

class InputSplitVerifier {
 public:
  explicit InputSplitVerifier(InputSplitOptions options = {});

  /// Maximum of expr(N(x)) over the region (ReLU/identity networks).
  InputSplitResult maximize(const nn::Network& net, const InputRegion& region,
                            const OutputExpr& expr) const;

  /// Decides expr <= threshold on the region: maximize() with the
  /// property's threshold as the decision threshold, so the search stops
  /// once the bound clears it or a value exceeds it; decide_verdict()
  /// reads the result.
  Verdict prove(const nn::Network& net, const SafetyProperty& property,
                InputSplitResult* detail = nullptr) const;

 private:
  InputSplitOptions options_;
};

}  // namespace safenn::verify
