// MILP encoding of ReLU networks.
//
// Implements the method of Cheng, Nührenberg, Ruess, "Maximum resilience
// of artificial neural networks" (ATVA 2017), which the paper applies in
// its case study: "encodes the structure of a neural network into a set
// of mixed integer linear constraints".
//
// Per unstable ReLU neuron (interval pre-activation bounds lo < 0 < hi)
// with pre-activation z = w.y_prev + b, post-activation variable y and
// phase binary d:
//     y >= z                     (y - w.y_prev        >= b)
//     y <= z - lo*(1 - d)        (y - w.y_prev - lo*d <= b - lo)
//     y <= hi*d
//     y in [0, max(0, hi)], d in {0, 1}
// Stable-active neurons collapse to the equality y = z; stable-inactive
// neurons are pinned to y = 0 and need no row at all. The identity output
// layer contributes one equality per output.
#pragma once

#include <vector>

#include "common/cancel.hpp"
#include "milp/model.hpp"
#include "nn/network.hpp"
#include "verify/property.hpp"

namespace safenn::verify {

/// How per-neuron pre-activation bounds (the big-M constants) are
/// obtained. Tighter bounds mean fewer binaries and a tighter relaxation;
/// bench_bigm_ablation measures the effect.
enum class BoundTightening {
  /// Every ReLU neuron gets the loose symmetric bound
  /// [-loose_big_m, +loose_big_m] and a binary (ablation baseline).
  kLooseBigM,
  /// Interval arithmetic through the layers (cheap, layer-wise sound).
  kInterval,
  /// Symbolic (Neurify/DeepPoly-style) linear bounds in the input
  /// variables, concretized per neuron. Never looser than kInterval,
  /// still LP-free.
  kSymbolic,
  /// Per-neuron min/max LPs over the triangle relaxation of all earlier
  /// layers (slower to build, much tighter; the default). Seeded by
  /// kSymbolic bounds: neurons the seed already proves stable skip their
  /// LP pair entirely.
  kLpTighten,
};

struct EncoderOptions {
  BoundTightening tightening = BoundTightening::kLpTighten;
  double loose_big_m = 1000.0;
  /// Optional pre-computed symbolic bounds for exactly (net, region.box),
  /// e.g. hoisted once per query by the portfolio. Used as the kSymbolic
  /// result and as the kLpTighten seed instead of re-deriving them. Must
  /// outlive the encode_network call; null re-derives locally.
  const std::vector<LayerBounds>* precomputed_symbolic = nullptr;
};

/// The triangle relaxation (Neurify; Wang et al.) as one LP, built in
/// two steps that lp_tightened_bounds and input splitting's per-box LP
/// share. relaxation_lp makes the region LP: input variables 0..n-1
/// bounded by `box`, plus the side constraints. append_relaxed_neuron then
/// appends neuron `r` of `layer`, whose pre-activation z = w_r.prev + b_r
/// (over the previous layer's variables `prev`) is bounded by `pre`, and
/// returns its output variable y. y's bounds are the neuron's
/// post-activation interval:
///   identity, or ReLU with pre.lo >= 0:   y = z
///   ReLU with pre.hi <= 0:                y = 0 (a fixed variable, no row)
///   unstable ReLU:                        y >= z, y <= hi (z - lo)/(hi - lo)
lp::Problem relaxation_lp(const Box& box,
                          const std::vector<InputConstraint>& constraints);
int append_relaxed_neuron(lp::Problem& lp, const nn::DenseLayer& layer,
                          std::size_t r, const std::vector<int>& prev,
                          const Interval& pre);

/// Per-neuron bounds via layer-by-layer LP tightening: each neuron's
/// pre-activation is minimized/maximized over an LP containing the input
/// region and the triangle relaxation of all previously-bounded layers.
/// Always at least as tight as propagate_bounds. `symbolic_seed`, when
/// non-null, must be symbolic_bounds(net, region.box) (the caller hoisted
/// it); null derives the seed here. `stop` is polled before every
/// neuron's LP pair; once it fires, the remaining neurons keep their
/// (sound, looser) seed bounds, so the caller's own poll ends the solve.
/// Each layer's LPs share one lp::Simplex (one phase 1 per layer); a
/// non-null `lp_iterations` receives their simplex iterations.
std::vector<LayerBounds> lp_tightened_bounds(
    const nn::Network& net, const InputRegion& region,
    const std::vector<LayerBounds>* symbolic_seed = nullptr,
    const CancelToken& stop = CancelToken(), long* lp_iterations = nullptr);

/// The encoded model plus the variable maps needed to read answers back.
struct EncodedNetwork {
  milp::Model model;
  std::vector<int> input_vars;                 // one per input dim
  std::vector<int> output_vars;                // one per output dim
  std::vector<std::vector<int>> post_vars;     // per layer, per neuron
  std::vector<std::vector<int>> phase_binaries;  // -1 where no binary
  /// Branch priorities for BnbOptions (early layers first).
  std::vector<double> branch_priority;
  std::size_t num_binaries = 0;
  std::size_t num_stable_active = 0;
  std::size_t num_stable_inactive = 0;
  /// Simplex iterations of the kLpTighten bound tightening (0 otherwise).
  long lp_iterations = 0;

  /// Input assignment extracted from a MILP solution vector.
  linalg::Vector extract_input(const std::vector<double>& values) const;

  /// Full MILP variable assignment corresponding to a concrete network
  /// execution at input `x` — always feasible for the encoding, so it
  /// seeds branch-and-bound with an incumbent (warm start).
  std::vector<double> assignment_from_input(const nn::Network& net,
                                            const linalg::Vector& x) const;
};

/// Builds the MILP for `net` constrained to `region`. Only piecewise-
/// linear activations (ReLU hidden, identity output) are supported;
/// throws safenn::Error otherwise. No objective is set — callers add one.
/// `stop` bounds the kLpTighten bound tightening (lp_tightened_bounds).
EncodedNetwork encode_network(const nn::Network& net,
                              const InputRegion& region,
                              const EncoderOptions& options = {},
                              const CancelToken& stop = CancelToken());

}  // namespace safenn::verify
