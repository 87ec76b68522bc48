#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "verify/interval.hpp"
#include "verify/milp_encoder.hpp"
#include "verify/verifier.hpp"

namespace safenn::verify {
namespace {

using linalg::Vector;
using nn::Activation;
using nn::Network;

Network tiny_relu_net(Rng& rng, std::vector<std::size_t> widths) {
  return Network::make_mlp(widths, Activation::kRelu, Activation::kIdentity,
                           rng);
}

Box unit_box(std::size_t dims, double lo = -1.0, double hi = 1.0) {
  return Box(dims, Interval{lo, hi});
}

TEST(Interval, ClassifyStability) {
  EXPECT_EQ(classify(Interval{0.5, 2.0}), NeuronStability::kStableActive);
  EXPECT_EQ(classify(Interval{-3.0, -0.1}), NeuronStability::kStableInactive);
  EXPECT_EQ(classify(Interval{-1.0, 1.0}), NeuronStability::kUnstable);
  EXPECT_EQ(classify(Interval{0.0, 1.0}), NeuronStability::kStableActive);
}

TEST(Interval, HandComputedPropagation) {
  // Single neuron: z = 2a - b + 1 over a,b in [0,1]: z in [0, 3].
  Network net;
  nn::DenseLayer l(2, 1, Activation::kRelu);
  l.weights() = linalg::Matrix{{2.0, -1.0}};
  l.biases() = Vector{1.0};
  net.add_layer(std::move(l));
  const auto bounds = propagate_bounds(net, unit_box(2, 0.0, 1.0));
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(bounds[0].pre[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(bounds[0].pre[0].hi, 3.0);
  EXPECT_DOUBLE_EQ(bounds[0].post[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(bounds[0].post[0].hi, 3.0);
}

TEST(Interval, RejectsDimensionMismatch) {
  Rng rng(1);
  Network net = tiny_relu_net(rng, {3, 4, 2});
  EXPECT_THROW(propagate_bounds(net, unit_box(2)), Error);
}

TEST(Interval, RejectsEmptyInterval) {
  Rng rng(2);
  Network net = tiny_relu_net(rng, {2, 3, 1});
  Box box = unit_box(2);
  box[0] = Interval{1.0, -1.0};
  EXPECT_THROW(propagate_bounds(net, box), Error);
}

// Soundness: network outputs at sampled points stay inside the bounds.
class IntervalSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSoundness, SampledOutputsInsideBounds) {
  Rng rng(GetParam());
  Network net = tiny_relu_net(rng, {3, 8, 6, 2});
  const Box box = unit_box(3, -2.0, 1.5);
  const auto out = output_bounds(net, box);
  for (int trial = 0; trial < 300; ++trial) {
    Vector x(3);
    for (std::size_t i = 0; i < 3; ++i)
      x[i] = rng.uniform(box[i].lo, box[i].hi);
    const Vector y = net.forward(x);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_GE(y[i], out[i].lo - 1e-9);
      EXPECT_LE(y[i], out[i].hi + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSoundness,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(Interval, SmoothActivationsSupported) {
  Rng rng(3);
  Network net = Network::make_mlp({2, 6, 1}, Activation::kAtan,
                                  Activation::kIdentity, rng);
  const Box box = unit_box(2);
  const auto out = output_bounds(net, box);
  for (int trial = 0; trial < 100; ++trial) {
    Vector x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const double y = net.forward(x)[0];
    EXPECT_GE(y, out[0].lo - 1e-9);
    EXPECT_LE(y, out[0].hi + 1e-9);
  }
}

TEST(Interval, StabilityStatsCountAllReluNeurons) {
  Rng rng(4);
  Network net = tiny_relu_net(rng, {3, 10, 10, 2});
  const StabilityStats stats = stability_stats(net, unit_box(3));
  EXPECT_EQ(stats.total(), 20u);  // output layer is identity, not counted
}

TEST(Interval, TinyBoxMakesNeuronsStable) {
  Rng rng(5);
  Network net = tiny_relu_net(rng, {3, 12, 12, 2});
  const StabilityStats wide = stability_stats(net, unit_box(3, -5, 5));
  const StabilityStats narrow =
      stability_stats(net, unit_box(3, 0.4999, 0.5001));
  EXPECT_LE(narrow.unstable, wide.unstable);
  EXPECT_GT(narrow.stable_active + narrow.stable_inactive, 0u);
}

TEST(Property, RegionMembership) {
  InputRegion region;
  region.box = unit_box(2, 0.0, 1.0);
  region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {1, 1.0}}, lp::Relation::kLe, 1.0});
  EXPECT_TRUE(region.contains(Vector{0.2, 0.3}));
  EXPECT_FALSE(region.contains(Vector{0.8, 0.9}));   // violates sum <= 1
  EXPECT_FALSE(region.contains(Vector{-0.1, 0.0}));  // outside box
}

TEST(Property, OutputExprEvaluation) {
  OutputExpr e{{{0, 2.0}, {2, -1.0}}};
  EXPECT_DOUBLE_EQ(e.evaluate(Vector{1.0, 99.0, 3.0}), -1.0);
}

TEST(Property, HoldsAtIsVacuousOutsideRegion) {
  Rng rng(6);
  Network net = tiny_relu_net(rng, {2, 4, 1});
  SafetyProperty prop;
  prop.region.box = unit_box(2, 0.0, 0.5);
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = -1e9;  // impossible bound
  EXPECT_TRUE(prop.holds_at(net, Vector{0.9, 0.9}));  // outside region
}

TEST(Encoder, RejectsSmoothNetworks) {
  Rng rng(7);
  Network net = Network::make_mlp({2, 3, 1}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = unit_box(2);
  EXPECT_THROW(encode_network(net, region), Error);
}

TEST(Encoder, VariableMapsShapedLikeNetwork) {
  Rng rng(8);
  Network net = tiny_relu_net(rng, {3, 5, 4, 2});
  InputRegion region;
  region.box = unit_box(3);
  const EncodedNetwork enc = encode_network(net, region);
  EXPECT_EQ(enc.input_vars.size(), 3u);
  EXPECT_EQ(enc.output_vars.size(), 2u);
  EXPECT_EQ(enc.post_vars.size(), 3u);
  EXPECT_EQ(enc.post_vars[0].size(), 5u);
  EXPECT_EQ(enc.post_vars[1].size(), 4u);
  EXPECT_EQ(enc.num_binaries + enc.num_stable_active +
                enc.num_stable_inactive,
            9u);  // all hidden ReLU neurons accounted for
}

TEST(Encoder, LooseBigMUsesBinaryPerNeuron) {
  Rng rng(9);
  Network net = tiny_relu_net(rng, {3, 6, 6, 1});
  InputRegion region;
  region.box = unit_box(3);
  EncoderOptions loose;
  loose.tightening = BoundTightening::kLooseBigM;
  const EncodedNetwork tight = encode_network(net, region);
  const EncodedNetwork baseline = encode_network(net, region, loose);
  EXPECT_EQ(baseline.num_binaries, 12u);
  EXPECT_LE(tight.num_binaries, baseline.num_binaries);
}

// The central correctness property: the MILP maximum equals the true
// network maximum. Verified against dense sampling (lower bound) and the
// network-evaluated witness (achievability).
class MilpExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MilpExactness, MaximumMatchesSampledMaximum) {
  Rng rng(GetParam() + 100);
  Network net = tiny_relu_net(rng, {2, 5, 4, 1});
  InputRegion region;
  region.box = unit_box(2, -1.5, 1.5);
  OutputExpr expr{{{0, 1.0}}};

  MilpVerifier verifier;
  const MaximizeResult res = verifier.maximize(net, region, expr);
  ASSERT_EQ(res.status, milp::MilpStatus::kOptimal) << "seed " << GetParam();
  ASSERT_TRUE(res.has_value);

  // Dense grid sampling can only find values <= the true maximum.
  double sampled_max = -1e100;
  const int grid = 60;
  for (int i = 0; i <= grid; ++i) {
    for (int j = 0; j <= grid; ++j) {
      Vector x{-1.5 + 3.0 * i / grid, -1.5 + 3.0 * j / grid};
      sampled_max = std::max(sampled_max, net.forward(x)[0]);
    }
  }
  EXPECT_GE(res.max_value, sampled_max - 1e-5) << "seed " << GetParam();
  // Witness must live in the region and achieve the reported value.
  EXPECT_TRUE(region.contains(res.witness));
  EXPECT_NEAR(net.forward(res.witness)[0], res.max_value, 1e-9);
  // MILP bound must certify the value.
  EXPECT_GE(res.upper_bound, res.max_value - 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpExactness,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(MilpVerifier, LooseAndTightBigMAgreeOnMaximum) {
  Rng rng(200);
  Network net = tiny_relu_net(rng, {2, 6, 1});
  InputRegion region;
  region.box = unit_box(2);
  OutputExpr expr{{{0, 1.0}}};

  VerifierOptions tight_opt;
  VerifierOptions loose_opt;
  loose_opt.encoder.tightening = BoundTightening::kLooseBigM;
  loose_opt.encoder.loose_big_m = 50.0;
  const MaximizeResult tight = MilpVerifier(tight_opt).maximize(net, region, expr);
  const MaximizeResult loose = MilpVerifier(loose_opt).maximize(net, region, expr);
  ASSERT_EQ(tight.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(loose.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(tight.max_value, loose.max_value, 1e-5);
  EXPECT_GE(loose.binaries, tight.binaries);
}

TEST(MilpVerifier, RespectsInputSideConstraints) {
  // Identity network: output = x0 + x1 (via weights). Region: box [0,1]^2
  // plus x0 + x1 <= 0.7. Max of output = 0.7, not 2.0.
  Network net;
  nn::DenseLayer l(2, 1, Activation::kIdentity);
  l.weights() = linalg::Matrix{{1.0, 1.0}};
  l.biases() = Vector{0.0};
  net.add_layer(std::move(l));
  InputRegion region;
  region.box = unit_box(2, 0.0, 1.0);
  region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {1, 1.0}}, lp::Relation::kLe, 0.7});
  const MaximizeResult res =
      MilpVerifier().maximize(net, region, OutputExpr{{{0, 1.0}}});
  ASSERT_EQ(res.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(res.max_value, 0.7, 1e-6);
}

TEST(MilpVerifier, ProvesTrueProperty) {
  Rng rng(11);
  Network net = tiny_relu_net(rng, {2, 6, 1});
  SafetyProperty prop;
  prop.name = "output below interval bound";
  prop.region.box = unit_box(2);
  prop.expr.terms = {{0, 1.0}};
  // Interval bound is sound, so threshold above it must be provable.
  prop.threshold =
      IntervalVerifier().upper_bound(net, prop.region, prop.expr) + 1.0;
  const ProveResult res = MilpVerifier().prove(net, prop);
  EXPECT_EQ(res.verdict, Verdict::kProved);
  EXPECT_FALSE(res.counterexample.has_value());
}

TEST(MilpVerifier, RefutesFalsePropertyWithWitness) {
  Rng rng(12);
  Network net = tiny_relu_net(rng, {2, 6, 1});
  SafetyProperty prop;
  prop.region.box = unit_box(2);
  prop.expr.terms = {{0, 1.0}};
  // Threshold below the value at the box centre: must be violated.
  prop.threshold = net.forward(Vector{0.0, 0.0})[0] - 0.5;
  const ProveResult res = MilpVerifier().prove(net, prop);
  ASSERT_EQ(res.verdict, Verdict::kViolated);
  ASSERT_TRUE(res.counterexample.has_value());
  EXPECT_TRUE(prop.region.contains(*res.counterexample));
  EXPECT_GT(prop.expr.evaluate(net.forward(*res.counterexample)),
            prop.threshold);
  EXPECT_FALSE(prop.holds_at(net, *res.counterexample));
}

TEST(MilpVerifier, EmptyRegionIsVacuouslySafe) {
  Rng rng(13);
  Network net = tiny_relu_net(rng, {2, 4, 1});
  SafetyProperty prop;
  prop.region.box = unit_box(2, 0.0, 1.0);
  // Contradictory side constraints: x0 >= 2 inside box [0,1].
  prop.region.constraints.push_back(
      InputConstraint{{{0, 1.0}}, lp::Relation::kGe, 2.0});
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = -1e9;
  const ProveResult res = MilpVerifier().prove(net, prop);
  EXPECT_EQ(res.verdict, Verdict::kProved);
}

TEST(MilpVerifier, TimeLimitYieldsUnknownOrAnswer) {
  Rng rng(14);
  Network net = tiny_relu_net(rng, {6, 24, 24, 24, 1});
  SafetyProperty prop;
  prop.region.box = unit_box(6, -3.0, 3.0);
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = 0.0;
  VerifierOptions opt;
  opt.time_limit_seconds = 0.2;
  const ProveResult res = MilpVerifier(opt).prove(net, prop);
  // Any verdict is acceptable; what matters is an honest, prompt return.
  EXPECT_LT(res.seconds, 30.0);
  if (res.verdict == Verdict::kViolated) {
    ASSERT_TRUE(res.counterexample.has_value());
    EXPECT_GT(prop.expr.evaluate(net.forward(*res.counterexample)),
              prop.threshold);
  }
}

TEST(IntervalVerifier, BoundDominatesMilpMaximum) {
  Rng rng(15);
  for (int trial = 0; trial < 5; ++trial) {
    Network net = tiny_relu_net(rng, {2, 5, 1});
    InputRegion region;
    region.box = unit_box(2);
    OutputExpr expr{{{0, 1.0}}};
    const double ub = IntervalVerifier().upper_bound(net, region, expr);
    const MaximizeResult exact = MilpVerifier().maximize(net, region, expr);
    ASSERT_EQ(exact.status, milp::MilpStatus::kOptimal);
    EXPECT_GE(ub, exact.max_value - 1e-7);
  }
}

TEST(IntervalVerifier, NeverClaimsViolation) {
  Rng rng(16);
  Network net = tiny_relu_net(rng, {2, 4, 1});
  SafetyProperty prop;
  prop.region.box = unit_box(2);
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = -1e9;
  EXPECT_EQ(IntervalVerifier().prove(net, prop), Verdict::kUnknown);
  prop.threshold = 1e9;
  EXPECT_EQ(IntervalVerifier().prove(net, prop), Verdict::kProved);
}

TEST(Verdict, ToString) {
  EXPECT_EQ(to_string(Verdict::kProved), "proved");
  EXPECT_EQ(to_string(Verdict::kViolated), "violated");
  EXPECT_EQ(to_string(Verdict::kUnknown), "unknown");
}

}  // namespace
}  // namespace safenn::verify

// ---------------------------------------------------------------------------
// Input-splitting verifier (appended suite).
// ---------------------------------------------------------------------------
#include "verify/input_split.hpp"

namespace safenn::verify {
namespace {

class InputSplitExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InputSplitExactness, AgreesWithMilpOnTinyNets) {
  Rng rng(GetParam() + 300);
  Network net = Network::make_mlp({2, 5, 4, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(2, Interval{-1.5, 1.5});
  OutputExpr expr{{{0, 1.0}}};

  const MaximizeResult milp = MilpVerifier().maximize(net, region, expr);
  ASSERT_EQ(milp.status, milp::MilpStatus::kOptimal);

  InputSplitOptions opts;
  opts.gap_tol = 1e-5;
  opts.time_limit_seconds = 60.0;
  const InputSplitResult split =
      InputSplitVerifier(opts).maximize(net, region, expr);
  ASSERT_TRUE(split.exact) << "seed " << GetParam();
  EXPECT_NEAR(split.max_value, milp.max_value, 1e-4) << "seed " << GetParam();
  EXPECT_TRUE(region.contains(split.witness));
  EXPECT_NEAR(net.forward(split.witness)[0], split.max_value, 1e-9);
  EXPECT_GE(split.upper_bound, split.max_value - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InputSplitExactness,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(InputSplit, ProveVerdicts) {
  Rng rng(41);
  Network net = Network::make_mlp({2, 6, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  SafetyProperty prop;
  prop.region.box = Box(2, Interval{-1.0, 1.0});
  prop.expr.terms = {{0, 1.0}};

  InputSplitOptions opts;
  opts.time_limit_seconds = 30.0;
  InputSplitVerifier v(opts);
  InputSplitResult detail;
  // Find the true max first.
  const InputSplitResult max_result =
      v.maximize(net, prop.region, prop.expr);
  ASSERT_TRUE(max_result.exact);

  prop.threshold = max_result.max_value + 0.1;
  EXPECT_EQ(v.prove(net, prop, &detail), Verdict::kProved);
  prop.threshold = max_result.max_value - 0.1;
  EXPECT_EQ(v.prove(net, prop, &detail), Verdict::kViolated);
}

TEST(InputSplit, RespectsSideConstraints) {
  Network net;
  nn::DenseLayer l(2, 1, Activation::kIdentity);
  l.weights() = linalg::Matrix{{1.0, 1.0}};
  net.add_layer(std::move(l));
  InputRegion region;
  region.box = Box(2, Interval{0.0, 1.0});
  region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {1, 1.0}}, lp::Relation::kLe, 0.6});
  const InputSplitResult r =
      InputSplitVerifier().maximize(net, region, OutputExpr{{{0, 1.0}}});
  ASSERT_TRUE(r.exact);
  EXPECT_NEAR(r.max_value, 0.6, 1e-3);
}

TEST(InputSplit, TimeLimitHonest) {
  Rng rng(42);
  Network net = Network::make_mlp({8, 30, 30, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(8, Interval{-2.0, 2.0});
  InputSplitOptions opts;
  opts.time_limit_seconds = 0.3;
  const InputSplitResult r =
      InputSplitVerifier(opts).maximize(net, region, OutputExpr{{{0, 1.0}}});
  EXPECT_LT(r.seconds, 10.0);
  if (!r.exact) {
    EXPECT_GE(r.upper_bound, r.max_value - 1e-9);
  }
}

TEST(InputSplit, RejectsSmoothNetworks) {
  Rng rng(43);
  Network net = Network::make_mlp({2, 3, 1}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(2, Interval{-1.0, 1.0});
  EXPECT_THROW(
      InputSplitVerifier().maximize(net, region, OutputExpr{{{0, 1.0}}}),
      Error);
}

}  // namespace
}  // namespace safenn::verify

// ---------------------------------------------------------------------------
// LP-based bound tightening (appended suite).
// ---------------------------------------------------------------------------
namespace safenn::verify {
namespace {

class LpTighteningProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpTighteningProperty, SoundAndNoLooserThanIntervals) {
  Rng rng(GetParam() + 500);
  Network net = Network::make_mlp({3, 7, 6, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(3, Interval{-1.2, 1.2});
  const auto interval_bounds = propagate_bounds(net, region.box);
  const auto lp_bounds = lp_tightened_bounds(net, region);
  ASSERT_EQ(lp_bounds.size(), interval_bounds.size());

  // (a) Never looser than interval bounds.
  for (std::size_t li = 0; li < lp_bounds.size(); ++li) {
    for (std::size_t r = 0; r < lp_bounds[li].pre.size(); ++r) {
      EXPECT_GE(lp_bounds[li].pre[r].lo, interval_bounds[li].pre[r].lo - 1e-7);
      EXPECT_LE(lp_bounds[li].pre[r].hi, interval_bounds[li].pre[r].hi + 1e-7);
    }
  }
  // (b) Sound: sampled pre-activations stay inside the LP bounds.
  for (int trial = 0; trial < 200; ++trial) {
    Vector x(3);
    for (std::size_t i = 0; i < 3; ++i)
      x[i] = rng.uniform(region.box[i].lo, region.box[i].hi);
    const nn::ForwardTrace trace = net.forward_trace(x);
    for (std::size_t li = 0; li < lp_bounds.size(); ++li) {
      for (std::size_t r = 0; r < lp_bounds[li].pre.size(); ++r) {
        EXPECT_GE(trace.pre_activations[li][r],
                  lp_bounds[li].pre[r].lo - 1e-6);
        EXPECT_LE(trace.pre_activations[li][r],
                  lp_bounds[li].pre[r].hi + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpTighteningProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(LpTightening, AllModesAgreeOnExactMaximum) {
  Rng rng(501);
  Network net = Network::make_mlp({2, 6, 5, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(2, Interval{-1.0, 1.0});
  OutputExpr expr{{{0, 1.0}}};
  double reference = 0.0;
  bool first = true;
  for (BoundTightening mode :
       {BoundTightening::kLooseBigM, BoundTightening::kInterval,
        BoundTightening::kSymbolic, BoundTightening::kLpTighten}) {
    VerifierOptions opts;
    opts.encoder.tightening = mode;
    opts.encoder.loose_big_m = 100.0;
    const MaximizeResult r = MilpVerifier(opts).maximize(net, region, expr);
    ASSERT_EQ(r.status, milp::MilpStatus::kOptimal);
    if (first) {
      reference = r.max_value;
      first = false;
    } else {
      EXPECT_NEAR(r.max_value, reference, 1e-5);
    }
  }
}

TEST(LpTightening, FewerOrEqualBinariesThanInterval) {
  Rng rng(502);
  Network net = Network::make_mlp({3, 10, 10, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(3, Interval{-0.8, 0.8});
  EncoderOptions interval_opts;
  interval_opts.tightening = BoundTightening::kInterval;
  EncoderOptions lp_opts;
  lp_opts.tightening = BoundTightening::kLpTighten;
  const EncodedNetwork e_int = encode_network(net, region, interval_opts);
  const EncodedNetwork e_lp = encode_network(net, region, lp_opts);
  EXPECT_LE(e_lp.num_binaries, e_int.num_binaries);
}

TEST(WarmStart, AssignmentFromInputIsFeasible) {
  Rng rng(503);
  Network net = Network::make_mlp({3, 6, 4, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(3, Interval{-1.0, 1.0});
  const EncodedNetwork enc = encode_network(net, region);
  for (int trial = 0; trial < 20; ++trial) {
    Vector x(3);
    for (auto& v : x) v = rng.uniform(-1, 1);
    const std::vector<double> assignment = enc.assignment_from_input(net, x);
    EXPECT_LE(enc.model.problem().max_violation(assignment), 1e-7)
        << "trial " << trial;
    EXPECT_TRUE(enc.model.is_integral(assignment, 1e-9));
  }
}

TEST(WarmStart, HybridSplitWarmStartStillExact) {
  Rng rng(504);
  Network net = Network::make_mlp({2, 6, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(2, Interval{-1.0, 1.0});
  OutputExpr expr{{{0, 1.0}}};
  VerifierOptions hybrid;
  hybrid.warm_start_split_seconds = 0.5;
  const MaximizeResult a = MilpVerifier().maximize(net, region, expr);
  const MaximizeResult b = MilpVerifier(hybrid).maximize(net, region, expr);
  ASSERT_EQ(a.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(b.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(a.max_value, b.max_value, 1e-6);
}

// The portfolio's hoisted sweep hands its result to the MILP as `start`;
// that must be exactly the search MilpVerifier runs on its own sweep.
TEST(WarmStart, StartPointReplacesSweepBitwise) {
  Rng rng(505);
  const Network net = Network::make_mlp({3, 8, 6, 1}, Activation::kRelu,
                                        Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(3, Interval{-1.0, 1.0});
  region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {1, -1.0}}, lp::Relation::kLe, 0.5});
  const OutputExpr expr{{{0, 1.0}}};
  const std::optional<Incumbent> best = warm_start_sweep(net, region, expr);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(region.contains(best->x));
  EXPECT_EQ(best->value, expr.evaluate(net.forward(best->x)));

  const MaximizeResult swept = MilpVerifier().maximize(net, region, expr);
  VerifierOptions given;
  given.start = &best;
  const MaximizeResult started =
      MilpVerifier(given).maximize(net, region, expr);
  ASSERT_EQ(swept.status, milp::MilpStatus::kOptimal);
  EXPECT_EQ(started.status, swept.status);
  EXPECT_EQ(started.max_value, swept.max_value);
  EXPECT_EQ(started.upper_bound, swept.upper_bound);
  EXPECT_EQ(started.nodes, swept.nodes);
  EXPECT_EQ(started.lp_iterations, swept.lp_iterations);
}

// A sweep that found no in-region point starts the search cold, exactly
// as MilpVerifier does when its own sweep comes back empty.
TEST(WarmStart, EmptySweepResultStartsCold) {
  Rng rng(507);
  const Network net = Network::make_mlp({2, 8, 6, 1}, Activation::kRelu,
                                        Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(2, Interval{-1.0, 1.0});
  // A sliver along the diagonal no uniform draw lands in.
  region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {1, -1.0}}, lp::Relation::kLe, 1e-9});
  region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {1, -1.0}}, lp::Relation::kGe, -1e-9});
  const OutputExpr expr{{{0, 1.0}}};
  ASSERT_FALSE(warm_start_sweep(net, region, expr).has_value());

  const MaximizeResult swept = MilpVerifier().maximize(net, region, expr);
  const std::optional<Incumbent> none;
  VerifierOptions given;
  given.start = &none;
  const MaximizeResult started =
      MilpVerifier(given).maximize(net, region, expr);
  ASSERT_EQ(swept.status, milp::MilpStatus::kOptimal);
  EXPECT_EQ(started.status, swept.status);
  EXPECT_EQ(started.max_value, swept.max_value);
  EXPECT_EQ(started.upper_bound, swept.upper_bound);
  EXPECT_EQ(started.nodes, swept.nodes);
  EXPECT_EQ(started.lp_iterations, swept.lp_iterations);
}

TEST(MilpVerifier, OnIncumbentSeesInRegionNetworkValues) {
  Rng rng(506);
  const Network net = Network::make_mlp({2, 8, 6, 1}, Activation::kRelu,
                                        Activation::kIdentity, rng);
  InputRegion region;
  region.box = unit_box(2);
  const OutputExpr expr{{{0, 1.0}}};
  const Vector corner{-1.0, -1.0};  // rarely the maximum
  const std::optional<Incumbent> start =
      Incumbent{expr.evaluate(net.forward(corner)), corner};
  VerifierOptions o;
  o.start = &start;
  int calls = 0;
  o.on_incumbent = [&](double v, const Vector& x) {
    ++calls;
    EXPECT_TRUE(region.contains(x));
    EXPECT_EQ(v, expr.evaluate(net.forward(x)));
  };
  const MaximizeResult m = MilpVerifier(o).maximize(net, region, expr);
  ASSERT_EQ(m.status, milp::MilpStatus::kOptimal);
  EXPECT_GT(calls, 0);
  EXPECT_FALSE(m.cancelled);
}

}  // namespace
}  // namespace safenn::verify

// ---------------------------------------------------------------------------
// One query check and one verdict rule (appended suite).
// ---------------------------------------------------------------------------
#include <functional>
#include <limits>
#include <string>
#include <tuple>

#include "verify/portfolio.hpp"

namespace safenn::verify {
namespace {

using linalg::Vector;
using nn::Activation;
using nn::Network;

TEST(Property, WellFormedRegionNamesOnlyBoxDimensions) {
  InputRegion region;
  region.box = Box(3, Interval{-1.0, 1.0});
  EXPECT_TRUE(region.well_formed());
  region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {2, -1.0}}, lp::Relation::kLe, 0.5});
  EXPECT_TRUE(region.well_formed());
  for (const int idx : {-1, 3}) {
    InputRegion bad = region;
    bad.constraints.push_back(
        InputConstraint{{{1, 1.0}, {idx, 1.0}}, lp::Relation::kGe, 0.0});
    EXPECT_FALSE(bad.well_formed()) << idx;
  }
}

// Every public entry runs the one query check before any work; an
// unchecked side-constraint index (width or -1) would index
// lp_tightened_bounds' variable map out of bounds.
TEST(QueryCheck, EveryEntryRejectsMalformedQueries) {
  Rng rng(41);
  const Network net = Network::make_mlp({2, 4, 1}, Activation::kRelu,
                                        Activation::kIdentity, rng);
  const Network smooth = Network::make_mlp({2, 4, 1}, Activation::kTanh,
                                           Activation::kIdentity, rng);
  SafetyProperty good;
  good.region.box = Box(2, Interval{-1.0, 1.0});
  good.expr.terms = {{0, 1.0}};
  good.threshold = 1e3;

  using Entry = std::function<void(const Network&, const SafetyProperty&)>;
  // (name, reads expr?, entry)
  const std::vector<std::tuple<const char*, bool, Entry>> entries = {
      {"encode_network", false,
       [](const Network& n, const SafetyProperty& p) {
         encode_network(n, p.region);
       }},
      {"lp_tightened_bounds", false,
       [](const Network& n, const SafetyProperty& p) {
         lp_tightened_bounds(n, p.region);
       }},
      {"MilpVerifier::maximize", true,
       [](const Network& n, const SafetyProperty& p) {
         MilpVerifier().maximize(n, p.region, p.expr);
       }},
      {"MilpVerifier::prove", true,
       [](const Network& n, const SafetyProperty& p) {
         MilpVerifier().prove(n, p);
       }},
      {"InputSplitVerifier::maximize", true,
       [](const Network& n, const SafetyProperty& p) {
         InputSplitVerifier().maximize(n, p.region, p.expr);
       }},
      {"InputSplitVerifier::prove", true,
       [](const Network& n, const SafetyProperty& p) {
         InputSplitVerifier().prove(n, p);
       }},
      {"PortfolioVerifier::prove", true,
       [](const Network& n, const SafetyProperty& p) {
         PortfolioOptions o;
         o.num_workers = 1;
         PortfolioVerifier(o).prove(n, p);
       }},
  };

  std::vector<std::pair<std::string, SafetyProperty>> region_faults;
  for (const int idx : {-1, 2}) {
    SafetyProperty p = good;
    p.region.constraints.push_back(
        InputConstraint{{{0, 1.0}, {idx, 1.0}}, lp::Relation::kLe, 0.0});
    region_faults.emplace_back("constraint index " + std::to_string(idx), p);
  }
  SafetyProperty wide = good;
  wide.region.box.push_back(Interval{-1.0, 1.0});
  region_faults.emplace_back("region width", wide);
  SafetyProperty bad_output = good;
  bad_output.expr.terms = {{1, 1.0}};  // the net has one output

  for (const auto& [name, reads_expr, entry] : entries) {
    EXPECT_NO_THROW(entry(net, good)) << name;
    EXPECT_THROW(entry(smooth, good), Error) << name;
    for (const auto& [fault, p] : region_faults) {
      EXPECT_THROW(entry(net, p), Error) << name << ": " << fault;
    }
    if (reads_expr) {
      EXPECT_THROW(entry(net, bad_output), Error) << name;
    }
  }
}

TEST(Verdict, OneRuleForEveryEngine) {
  const double t = 1.0;
  const double inf = std::numeric_limits<double>::infinity();
  // An in-region value above t refutes, whatever the bound says.
  EXPECT_EQ(decide_verdict(t, true, t + 1e-12, -inf), Verdict::kViolated);
  EXPECT_EQ(decide_verdict(t, false, t + 1.0, 0.0), Verdict::kProved);
  EXPECT_EQ(decide_verdict(t, true, t, t), Verdict::kProved);
  // A sound bound proves within kProveTol; an exact MILP optimum's bound
  // within 1e-6 (its incumbent was evaluated through the network).
  EXPECT_EQ(decide_verdict(t, false, 0.0, t + 0.5e-9), Verdict::kProved);
  EXPECT_EQ(decide_verdict(t, false, 0.0, t + 2e-9), Verdict::kUnknown);
  EXPECT_EQ(decide_verdict(t, true, t, t + 2e-9, true), Verdict::kProved);
  EXPECT_EQ(decide_verdict(t, true, t, t + 2e-6, true), Verdict::kUnknown);
  EXPECT_EQ(decide_verdict(t, false, 0.0, -inf), Verdict::kProved);
  EXPECT_EQ(decide_verdict(t, false, 0.0, inf), Verdict::kUnknown);

  // The single-engine verifiers take the same slack as the portfolio: an
  // interval bound a hair above t proves.
  Network net;
  nn::DenseLayer l(2, 1, Activation::kIdentity);
  l.weights() = linalg::Matrix{{1.0, 0.0}};
  net.add_layer(std::move(l));
  SafetyProperty prop;
  prop.region.box = Box(2, Interval{0.0, 1.0});
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = 1.0 - 0.5e-9;
  EXPECT_EQ(IntervalVerifier().prove(net, prop), Verdict::kProved);
  prop.threshold = 1.0 - 2e-9;
  EXPECT_EQ(IntervalVerifier().prove(net, prop), Verdict::kUnknown);
}

}  // namespace
}  // namespace safenn::verify


// ---------------------------------------------------------------------------
// Maximum resilience (appended suite).
// ---------------------------------------------------------------------------
#include "verify/resilience.hpp"

namespace safenn::verify {
namespace {

TEST(Resilience, HandCraftedLinearNetwork) {
  // f(x) = x0: property f <= 0.5. Around center x0 = 0, the exact
  // resilience radius is 0.5.
  Network net;
  nn::DenseLayer l(2, 1, Activation::kIdentity);
  l.weights() = linalg::Matrix{{1.0, 0.0}};
  net.add_layer(std::move(l));
  SafetyProperty prop;
  prop.region.box = Box(2, Interval{-10, 10});  // ignored by the search
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = 0.5;
  ResilienceOptions opts;
  opts.radius_hi = 2.0;
  opts.radius_tol = 1e-4;
  const ResilienceResult r =
      maximum_resilience(net, prop, Vector{0.0, 0.0}, opts);
  EXPECT_TRUE(r.proved_any);
  EXPECT_NEAR(r.safe_radius, 0.5, 2e-3);
  // A violation just above the safe radius must have been witnessed.
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_GT((*r.counterexample)[0], 0.5 - 1e-6);
}

TEST(Resilience, FullRadiusSafeWhenThresholdHuge) {
  Rng rng(601);
  Network net = Network::make_mlp({2, 5, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  SafetyProperty prop;
  prop.region.box = Box(2, Interval{-1, 1});
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = 1e6;
  ResilienceOptions opts;
  opts.radius_hi = 1.0;
  const ResilienceResult r =
      maximum_resilience(net, prop, Vector{0.0, 0.0}, opts);
  EXPECT_TRUE(r.proved_any);
  EXPECT_DOUBLE_EQ(r.safe_radius, 1.0);
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(Resilience, UnprovableCenterReportsHonestly) {
  // Property already violated at the center.
  Network net;
  nn::DenseLayer l(1, 1, Activation::kIdentity);
  l.weights() = linalg::Matrix{{1.0}};
  net.add_layer(std::move(l));
  SafetyProperty prop;
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = -1.0;
  prop.region.box = Box(1, Interval{-5, 5});
  const ResilienceResult r =
      maximum_resilience(net, prop, Vector{0.0}, {});
  EXPECT_FALSE(r.proved_any);
  EXPECT_DOUBLE_EQ(r.safe_radius, 0.0);
}

TEST(Resilience, ClipBoxRestrictsPerturbations) {
  // f(x) = x0 with domain clipped to x0 <= 0.3: even a huge radius is
  // safe for threshold 0.4 because the clip box caps the reachable input.
  Network net;
  nn::DenseLayer l(1, 1, Activation::kIdentity);
  l.weights() = linalg::Matrix{{1.0}};
  net.add_layer(std::move(l));
  SafetyProperty prop;
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = 0.4;
  prop.region.box = Box(1, Interval{-1, 1});
  ResilienceOptions opts;
  opts.radius_hi = 10.0;
  opts.clip_box = Box(1, Interval{-0.3, 0.3});
  const ResilienceResult r = maximum_resilience(net, prop, Vector{0.0}, opts);
  EXPECT_TRUE(r.proved_any);
  EXPECT_DOUBLE_EQ(r.safe_radius, 10.0);
}

// Property: the safe radius is monotone in the threshold.
class ResilienceMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResilienceMonotone, LargerThresholdNeverShrinksRadius) {
  Rng rng(GetParam() + 700);
  Network net = Network::make_mlp({2, 6, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  const Vector center{0.0, 0.0};
  const double f0 = net.forward(center)[0];
  SafetyProperty prop;
  prop.region.box = Box(2, Interval{-2, 2});
  prop.expr.terms = {{0, 1.0}};
  ResilienceOptions opts;
  opts.radius_hi = 2.0;
  opts.radius_tol = 1e-3;
  prop.threshold = f0 + 0.2;
  const double r_small =
      maximum_resilience(net, prop, center, opts).safe_radius;
  prop.threshold = f0 + 0.8;
  const double r_large =
      maximum_resilience(net, prop, center, opts).safe_radius;
  EXPECT_GE(r_large, r_small - 2e-3) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResilienceMonotone,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace safenn::verify

// ---------------------------------------------------------------------------
// Symbolic bound propagation + parallel input splitting (appended suite).
// ---------------------------------------------------------------------------
#include "verify/symbolic.hpp"

namespace safenn::verify {
namespace {

using linalg::Vector;
using nn::Activation;
using nn::Network;

Network mixed_stack_net(Rng& rng) {
  // ReLU -> tanh -> identity-hidden -> ReLU -> identity output: every
  // activation family the propagators support, in one stack.
  Network net;
  const Activation acts[] = {Activation::kRelu, Activation::kTanh,
                             Activation::kIdentity, Activation::kRelu,
                             Activation::kIdentity};
  const std::size_t widths[] = {3, 6, 5, 5, 4, 2};
  for (std::size_t i = 0; i < 5; ++i) {
    nn::DenseLayer l(widths[i], widths[i + 1], acts[i]);
    l.init_weights(rng);
    net.add_layer(std::move(l));
  }
  return net;
}

// The tentpole property: symbolic bounds are sound (dense sampling never
// escapes them) and provably no looser than interval propagation.
class SymbolicProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymbolicProperty, SoundAndNeverLooserThanIntervals) {
  Rng rng(GetParam() + 700);
  Network net = Network::make_mlp({3, 7, 6, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  Box box(3);
  for (std::size_t i = 0; i < 3; ++i) {
    const double lo = rng.uniform(-1.5, 0.5);
    box[i] = Interval{lo, lo + rng.uniform(0.05, 2.0)};
  }
  const auto interval_b = propagate_bounds(net, box);
  const auto symbolic_b = symbolic_bounds(net, box);
  ASSERT_EQ(symbolic_b.size(), interval_b.size());

  // (a) Never looser (pre and post, every neuron, every layer).
  for (std::size_t li = 0; li < symbolic_b.size(); ++li) {
    for (std::size_t r = 0; r < symbolic_b[li].pre.size(); ++r) {
      EXPECT_GE(symbolic_b[li].pre[r].lo, interval_b[li].pre[r].lo - 1e-9);
      EXPECT_LE(symbolic_b[li].pre[r].hi, interval_b[li].pre[r].hi + 1e-9);
      EXPECT_GE(symbolic_b[li].post[r].lo, interval_b[li].post[r].lo - 1e-9);
      EXPECT_LE(symbolic_b[li].post[r].hi, interval_b[li].post[r].hi + 1e-9);
    }
  }
  // (b) Sound: densely sampled true activations stay inside.
  for (int trial = 0; trial < 300; ++trial) {
    Vector x(3);
    for (std::size_t i = 0; i < 3; ++i)
      x[i] = rng.uniform(box[i].lo, box[i].hi);
    const nn::ForwardTrace trace = net.forward_trace(x);
    for (std::size_t li = 0; li < symbolic_b.size(); ++li) {
      for (std::size_t r = 0; r < symbolic_b[li].pre.size(); ++r) {
        EXPECT_GE(trace.pre_activations[li][r],
                  symbolic_b[li].pre[r].lo - 1e-7);
        EXPECT_LE(trace.pre_activations[li][r],
                  symbolic_b[li].pre[r].hi + 1e-7);
        EXPECT_GE(trace.post_activations[li][r],
                  symbolic_b[li].post[r].lo - 1e-7);
        EXPECT_LE(trace.post_activations[li][r],
                  symbolic_b[li].post[r].hi + 1e-7);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(Symbolic, MixedStackSoundAndNoLooser) {
  Rng rng(710);
  Network net = mixed_stack_net(rng);
  const Box box(3, Interval{-0.9, 1.1});
  const auto interval_b = propagate_bounds(net, box);
  const auto symbolic_b = symbolic_bounds(net, box);
  for (std::size_t li = 0; li < symbolic_b.size(); ++li) {
    for (std::size_t r = 0; r < symbolic_b[li].post.size(); ++r) {
      EXPECT_GE(symbolic_b[li].post[r].lo, interval_b[li].post[r].lo - 1e-9);
      EXPECT_LE(symbolic_b[li].post[r].hi, interval_b[li].post[r].hi + 1e-9);
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    Vector x(3);
    for (std::size_t i = 0; i < 3; ++i)
      x[i] = rng.uniform(box[i].lo, box[i].hi);
    const Vector y = net.forward(x);
    const auto& out = symbolic_b.back().post;
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_GE(y[i], out[i].lo - 1e-7);
      EXPECT_LE(y[i], out[i].hi + 1e-7);
    }
  }
}

TEST(Symbolic, ObjectiveIntervalBoundsTrueMaximum) {
  Rng rng(711);
  Network net = Network::make_mlp({2, 6, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  const Box box(2, Interval{-1.0, 1.0});
  SymbolicPropagator prop(net);
  const SymbolicBounds sb = prop.propagate(box);
  const lp::LinearTerms terms{{0, 1.0}, {1, -0.5}};
  const Interval obj = SymbolicPropagator::objective_interval(sb, box, terms);
  for (int trial = 0; trial < 500; ++trial) {
    Vector x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const Vector y = net.forward(x);
    const double v = y[0] - 0.5 * y[1];
    EXPECT_GE(v, obj.lo - 1e-7);
    EXPECT_LE(v, obj.hi + 1e-7);
  }
}

// ISSUE edge cases: pre-activation intervals touching zero exactly.
TEST(Symbolic, EdgeCaseBoundsTouchingZero) {
  // z = x over x in [0, 1]: lo == 0, boundary-stable-active.
  Network active;
  {
    nn::DenseLayer l(1, 1, Activation::kRelu);
    l.weights() = linalg::Matrix{{1.0}};
    active.add_layer(std::move(l));
  }
  {
    const auto b = symbolic_bounds(active, Box(1, Interval{0.0, 1.0}));
    EXPECT_EQ(classify(b[0].pre[0]), NeuronStability::kStableActive);
    EXPECT_DOUBLE_EQ(b[0].post[0].lo, 0.0);
    EXPECT_DOUBLE_EQ(b[0].post[0].hi, 1.0);
  }
  // z = x over x in [-1, 0]: hi == 0, stable inactive; output pinned.
  {
    const auto b = symbolic_bounds(active, Box(1, Interval{-1.0, 0.0}));
    EXPECT_EQ(classify(b[0].pre[0]), NeuronStability::kStableInactive);
    EXPECT_DOUBLE_EQ(b[0].post[0].lo, 0.0);
    EXPECT_DOUBLE_EQ(b[0].post[0].hi, 0.0);
  }
  // Degenerate point box at the kink: both bounds zero.
  {
    const auto b = symbolic_bounds(active, Box(1, Interval{0.0, 0.0}));
    EXPECT_DOUBLE_EQ(b[0].pre[0].lo, 0.0);
    EXPECT_DOUBLE_EQ(b[0].pre[0].hi, 0.0);
    EXPECT_EQ(classify(b[0].pre[0]), NeuronStability::kStableActive);
  }
  // propagate_bounds agrees on the same edge cases.
  const auto ib = propagate_bounds(active, Box(1, Interval{-1.0, 0.0}));
  EXPECT_DOUBLE_EQ(ib[0].post[0].hi, 0.0);
}

TEST(Symbolic, FewerOrEqualBinariesThanInterval) {
  Rng rng(712);
  Network net = Network::make_mlp({3, 10, 10, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(3, Interval{-0.8, 0.8});
  EncoderOptions interval_opts;
  interval_opts.tightening = BoundTightening::kInterval;
  EncoderOptions sym_opts;
  sym_opts.tightening = BoundTightening::kSymbolic;
  const EncodedNetwork e_int = encode_network(net, region, interval_opts);
  const EncodedNetwork e_sym = encode_network(net, region, sym_opts);
  EXPECT_LE(e_sym.num_binaries, e_int.num_binaries);
}

// Parallel engine: identical trajectory for any worker count. This is
// the determinism contract from InputSplitOptions::num_workers — not
// just "same verdict", but bit-for-bit equal values and counters.
class InputSplitParallel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InputSplitParallel, WorkerCountDoesNotChangeResults) {
  Rng rng(GetParam() + 720);
  Network net = Network::make_mlp({3, 8, 6, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(3, Interval{-1.2, 1.2});
  OutputExpr expr{{{0, 1.0}}};

  InputSplitResult ref;
  bool first = true;
  for (int workers : {1, 2, 4}) {
    InputSplitOptions opts;
    opts.gap_tol = 1e-5;
    opts.time_limit_seconds = 60.0;
    opts.num_workers = workers;
    const InputSplitResult r =
        InputSplitVerifier(opts).maximize(net, region, expr);
    ASSERT_TRUE(r.exact) << "seed " << GetParam() << " workers " << workers;
    if (first) {
      ref = r;
      first = false;
      continue;
    }
    EXPECT_EQ(r.max_value, ref.max_value) << "workers " << workers;
    EXPECT_EQ(r.upper_bound, ref.upper_bound) << "workers " << workers;
    EXPECT_EQ(r.boxes_explored, ref.boxes_explored) << "workers " << workers;
    EXPECT_EQ(r.boxes_pruned_symbolic, ref.boxes_pruned_symbolic)
        << "workers " << workers;
    EXPECT_EQ(r.lp_iterations, ref.lp_iterations) << "workers " << workers;
    ASSERT_EQ(r.witness.size(), ref.witness.size());
    for (std::size_t i = 0; i < r.witness.size(); ++i) {
      EXPECT_EQ(r.witness[i], ref.witness[i]) << "workers " << workers;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InputSplitParallel,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(InputSplitParallel, SymbolicOnOffAgreeOnMaximum) {
  Rng rng(730);
  Network net = Network::make_mlp({2, 7, 5, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  InputRegion region;
  region.box = Box(2, Interval{-1.4, 1.4});
  OutputExpr expr{{{0, 1.0}}};
  InputSplitOptions with_sym;
  with_sym.gap_tol = 1e-6;
  with_sym.time_limit_seconds = 60.0;
  InputSplitOptions without_sym = with_sym;
  without_sym.use_symbolic = false;
  const InputSplitResult a =
      InputSplitVerifier(with_sym).maximize(net, region, expr);
  const InputSplitResult b =
      InputSplitVerifier(without_sym).maximize(net, region, expr);
  ASSERT_TRUE(a.exact);
  ASSERT_TRUE(b.exact);
  EXPECT_NEAR(a.max_value, b.max_value, 1e-5);
  EXPECT_GE(a.upper_bound, a.max_value - 1e-9);
  EXPECT_GE(b.upper_bound, b.max_value - 1e-9);
  EXPECT_EQ(b.boxes_pruned_symbolic, 0);
}

TEST(InputSplitParallel, ParallelProveVerdictsMatchSequential) {
  Rng rng(731);
  Network net = Network::make_mlp({2, 6, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  SafetyProperty prop;
  prop.region.box = Box(2, Interval{-1.0, 1.0});
  prop.expr.terms = {{0, 1.0}};
  InputSplitOptions seq;
  seq.time_limit_seconds = 30.0;
  const InputSplitResult m =
      InputSplitVerifier(seq).maximize(net, prop.region, prop.expr);
  ASSERT_TRUE(m.exact);
  for (double offset : {0.1, -0.1}) {
    prop.threshold = m.max_value + offset;
    InputSplitOptions par = seq;
    par.num_workers = 4;
    EXPECT_EQ(InputSplitVerifier(seq).prove(net, prop),
              InputSplitVerifier(par).prove(net, prop))
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace safenn::verify

// ---------------------------------------------------------------------------
// Pinned bits (appended suite). FNV-1a hashes of what the float kernels
// compute — batched forwards, SGD and momentum training at 1 and 2
// workers, a symbolic pass, an input-split maximization, LP-tightened
// bounds, a MILP maximization and deterministic portfolio runs — recorded
// from the default Release build. Weights and inputs come from
// Rng::uniform and the nets are ReLU/identity trained without Adam, so no
// libm call enters a hash: every build of the one float arithmetic (SIMD
// kernels on or off, -march=native, sanitizers) must reproduce them.
// ---------------------------------------------------------------------------

#include "common/hash.hpp"
#include "lp/simplex.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"

namespace safenn::verify {
namespace {

/// A ReLU MLP (identity output) with Rng::uniform weights and biases;
/// make_mlp draws its initialization through libm.
Network uniform_relu_net(std::uint64_t seed,
                         const std::vector<std::size_t>& widths) {
  Rng rng(seed);
  Network net;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    nn::DenseLayer layer(widths[l], widths[l + 1],
                         l + 2 < widths.size() ? Activation::kRelu
                                               : Activation::kIdentity);
    linalg::Matrix& w = layer.weights();
    for (std::size_t i = 0; i < w.size(); ++i) {
      w.data()[i] = rng.uniform(-0.5, 0.5);
    }
    for (std::size_t i = 0; i < layer.biases().size(); ++i) {
      layer.biases()[i] = rng.uniform(-0.1, 0.1);
    }
    net.add_layer(std::move(layer));
  }
  return net;
}

std::vector<Vector> uniform_rows(Rng& rng, std::size_t n, std::size_t dim) {
  std::vector<Vector> rows(n, Vector(dim));
  for (Vector& row : rows) {
    for (std::size_t d = 0; d < dim; ++d) row[d] = rng.uniform(-1.0, 1.0);
  }
  return rows;
}

class BitHash {
 public:
  void add(double x) { h_.update(&x, sizeof x); }
  void add(const double* p, std::size_t n) { h_.update(p, n * sizeof *p); }
  void add(const linalg::Matrix& m) { add(m.data(), m.size()); }
  void add(const Vector& v) { add(v.data(), v.size()); }
  void add(const Network& net) {
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      add(net.layer(li).weights());
      add(net.layer(li).biases());
    }
  }
  void add(const std::vector<Interval>& box) {
    for (const Interval& iv : box) {
      add(iv.lo);
      add(iv.hi);
    }
  }
  std::string hex() const { return hex64(h_.digest()); }

 private:
  Fnv1a64 h_;
};

TEST(Bits, ForwardBatchIsPinned) {
  const Network net = uniform_relu_net(17, {13, 24, 17, 6});
  const std::pair<std::size_t, const char*> expected[] = {
      {1, "b0ca6aa84249bb24"},
      {5, "dc97680042e69e64"},
      {16, "bff689f5b068685b"},
      {33, "1320c1bbd594f82a"}};
  Rng rng(18);
  for (const auto& [batch, hex] : expected) {
    linalg::Matrix x(batch, 13);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = rng.uniform(-1.0, 1.0);
    }
    BitHash h;
    h.add(net.forward_batch(x));
    EXPECT_EQ(h.hex(), hex) << "batch " << batch;
  }
}

TEST(Bits, SgdAndMomentumTrainingArePinnedAtOneAndTwoWorkers) {
  const std::pair<nn::Optimizer, const char*> expected[] = {
      {nn::Optimizer::kSgd, "b52dada5dd4e0202"},
      {nn::Optimizer::kMomentum, "6d0beffa6d4fc959"}};
  for (const auto& [optimizer, hex] : expected) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      Network net = uniform_relu_net(19, {9, 21, 14, 3});
      Rng rng(20);
      const std::vector<Vector> xs = uniform_rows(rng, 70, 9);
      const std::vector<Vector> ys = uniform_rows(rng, 70, 3);
      nn::TrainConfig cfg;
      cfg.epochs = 2;
      cfg.batch_size = 16;
      cfg.learning_rate = 0.05;
      cfg.optimizer = optimizer;
      cfg.grad_clip = 0.5;
      cfg.num_workers = workers;
      BitHash h;
      cfg.on_epoch = [&h](const nn::EpochStats& s) { h.add(s.mean_loss); };
      h.add(nn::Trainer(cfg).train(net, nn::MseLoss{}, xs, ys));
      h.add(net);
      EXPECT_EQ(h.hex(), hex) << "optimizer " << static_cast<int>(optimizer)
                              << " workers " << workers;
    }
  }
}

TEST(Bits, SymbolicPassAndInputSplitArePinned) {
  const Network net = uniform_relu_net(21, {3, 10, 7, 1});
  const Box box(3, Interval{-1.0, 1.0});
  const SymbolicBounds bounds = SymbolicPropagator(net).propagate(box);
  BitHash sym;
  for (const LayerBounds& layer : bounds.layers) {
    sym.add(layer.pre);
    sym.add(layer.post);
  }
  sym.add(bounds.output.lo_coef);
  sym.add(bounds.output.lo_const);
  sym.add(bounds.output.hi_coef);
  sym.add(bounds.output.hi_const);
  EXPECT_EQ(sym.hex(), "cd216b81b27a41a9");

  InputRegion region;
  region.box = box;
  const InputSplitResult r =
      InputSplitVerifier().maximize(net, region, OutputExpr{{{0, 1.0}}});
  ASSERT_TRUE(r.exact);
  BitHash split;
  split.add(r.max_value);
  split.add(r.upper_bound);
  split.add(r.witness);
  split.add(static_cast<double>(r.boxes_explored));
  EXPECT_EQ(split.hex(), "c6b6d3656dcba86c");
}


// The verification core's trajectories: LP-tightened bounds over a
// region with a side constraint, a MILP maximization, and deterministic
// portfolio runs that input splitting and the MILP each win. Values,
// counters and engine details are pure functions of the float arithmetic
// and the search order, so a changed LP row, pivot, search step or
// verdict moves a hash.
TEST(Bits, VerificationCoreIsPinned) {
  const Network net = uniform_relu_net(23, {4, 10, 8, 1});
  SafetyProperty prop;
  prop.region.box = Box(4, Interval{-1.0, 1.0});
  prop.region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {2, 0.5}}, lp::Relation::kLe, 0.3});
  prop.expr.terms = {{0, 1.0}};

  BitHash lp;
  for (const LayerBounds& layer : lp_tightened_bounds(net, prop.region)) {
    lp.add(layer.pre);
    lp.add(layer.post);
  }
  EXPECT_EQ(lp.hex(), "f0988dbdba4fb5c5");

  const MaximizeResult m =
      MilpVerifier().maximize(net, prop.region, prop.expr);
  ASSERT_EQ(m.status, milp::MilpStatus::kOptimal);
  BitHash milp;
  milp.add(m.max_value);
  milp.add(m.upper_bound);
  milp.add(static_cast<double>(m.nodes));
  milp.add(static_cast<double>(m.lp_iterations));
  EXPECT_EQ(milp.hex(), "0331179ec39d88f3");

  // A fifth of the way from the maximum to the root symbolic bound: the
  // race runs, and the winner needs a search to decide.
  const double root_hi =
      SymbolicPropagator::objective_interval(
          SymbolicPropagator(net).propagate(prop.region.box), prop.region.box,
          prop.expr.terms)
          .hi;
  prop.threshold = 0.8 * m.max_value + 0.2 * root_hi;
  const std::pair<bool, const char*> expected[] = {
      {true, "01b3e20776516272"}, {false, "deb151ccc13428ce"}};
  for (const auto& [use_split, hex] : expected) {
    PortfolioOptions o;
    o.deterministic = true;
    o.num_workers = 1;
    o.use_input_split = use_split;
    const PortfolioResult r = PortfolioVerifier(o).prove(net, prop);
    EXPECT_EQ(r.verdict, Verdict::kProved);
    EXPECT_EQ(r.winner, use_split ? PortfolioEngine::kInputSplit
                                  : PortfolioEngine::kMilp);
    BitHash h;
    h.add(static_cast<double>(r.verdict));
    h.add(static_cast<double>(r.winner));
    h.add(r.upper_bound);
    h.add(r.max_value);
    h.add(r.witness);
    for (const EngineOutcome& e : r.engines) {
      h.add(static_cast<double>(e.ran + 2 * e.decided + 4 * e.cancelled));
      h.add(static_cast<double>(e.verdict));
      h.add(e.upper_bound);
      h.add(e.max_value);
      h.add(e.witness);
      for (const char ch : e.detail) h.add(static_cast<double>(ch));
    }
    EXPECT_EQ(h.hex(), hex) << "use_input_split " << use_split;
  }
}

/// A seeded LP over n variables and m rows. Variables cycle through
/// boxed, lower-bounded, free, fixed and negative-bounded; rows through
/// <=, >= and =, with right-hand sides taken at a point inside the
/// bounds. Free variables cost nothing and lower-bounded ones are pushed
/// toward their bound, so every LP is feasible and bounded.
lp::Problem seeded_lp(std::uint64_t seed, int n, int m) {
  Rng rng(seed);
  lp::Problem p;
  p.set_maximize(seed % 2 == 0);
  const double toward_lower = p.maximize() ? -1.0 : 1.0;
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    double lo = -lp::kInfinity, hi = lp::kInfinity;  // free
    double cost = rng.uniform(-1.0, 1.0);
    if (j % 5 == 0) {  // boxed
      lo = rng.uniform(-2.0, 0.0);
      hi = lo + rng.uniform(0.5, 4.0);
    } else if (j % 5 == 1) {  // lower-bounded
      lo = rng.uniform(-1.0, 1.0);
      cost = toward_lower * rng.uniform(0.1, 1.0);
    } else if (j % 5 == 2) {
      cost = 0.0;
    } else if (j % 5 == 3) {  // fixed
      lo = hi = rng.uniform(-1.0, 1.0);
    } else {  // negative-bounded
      lo = rng.uniform(-6.0, -3.0);
      hi = rng.uniform(-2.0, -0.5);
    }
    x0[static_cast<std::size_t>(j)] =
        std::isfinite(hi) ? rng.uniform(lo, hi)
                          : (std::isfinite(lo) ? lo : 0.0) + rng.uniform();
    p.add_variable(lo, hi, cost);
  }
  const lp::Relation relations[] = {lp::Relation::kLe, lp::Relation::kGe,
                                    lp::Relation::kEq};
  for (int i = 0; i < m; ++i) {
    lp::LinearTerms terms;
    double ax = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.3) continue;
      const double c = rng.uniform(-1.0, 1.0);
      terms.emplace_back(j, c);
      ax += c * x0[static_cast<std::size_t>(j)];
    }
    const lp::Relation relation = relations[i % 3];
    const double margin =
        relation == lp::Relation::kEq ? 0.0 : rng.uniform(0.0, 1.0);
    p.add_constraint(std::move(terms), relation,
                     relation == lp::Relation::kGe ? ax - margin : ax + margin);
  }
  return p;
}

void add_solution(BitHash& h, const lp::Solution& s) {
  h.add(static_cast<double>(s.status));
  h.add(s.objective);
  h.add(s.values.data(), s.values.size());
  h.add(static_cast<double>(s.iterations));
}

// The simplex alone: each solve's status, objective, values and
// iteration count. The seeded LPs' tableau widths n + m (phase 2) and
// n + 2m (phase 1) take every value mod 4, below 4 too, so every vector
// tail runs. Then an equality system with a redundant row, an
// infeasible and an unbounded LP, and perfbench's query shape: the
// triangle LP of an 84-input I4x10 network over a small envelope.
TEST(Bits, SimplexIsPinned) {
  const lp::SimplexSolver solver;
  BitHash seeded;
  std::uint64_t seed = 31;
  std::vector<std::pair<int, int>> shapes;
  for (int n = 1; n <= 5; ++n) {
    for (int m = 0; m <= 4; ++m) shapes.emplace_back(n, m);
  }
  shapes.insert(shapes.end(), {{9, 6}, {14, 11}, {23, 17}, {40, 31}});
  for (const auto& [n, m] : shapes) {
    add_solution(seeded, solver.solve(seeded_lp(seed++, n, m)));
  }
  EXPECT_EQ(seeded.hex(), "e592c06fa5e13403");

  BitHash special;
  {  // Row 2 is row 0 + row 1; x4 is free.
    lp::Problem p;
    p.set_maximize(true);
    for (const double c : {1.0, 2.0, 0.5, -1.0}) p.add_variable(0.0, 10.0, c);
    p.add_variable(-lp::kInfinity, lp::kInfinity);
    p.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, lp::Relation::kEq, 6.0);
    p.add_constraint({{1, 1.0}, {3, -1.0}}, lp::Relation::kEq, 1.0);
    p.add_constraint({{0, 1.0}, {1, 2.0}, {2, 1.0}, {3, -1.0}},
                     lp::Relation::kEq, 7.0);
    p.add_constraint({{0, 1.0}, {4, 1.0}}, lp::Relation::kLe, 5.0);
    p.add_constraint({{2, 1.0}, {3, 1.0}}, lp::Relation::kGe, 1.0);
    add_solution(special, solver.solve(p));
  }
  {  // x0 + x1 >= 5 with x0 <= 1, x1 <= 2.
    lp::Problem p;
    p.add_variable(0.0, 1.0, 1.0);
    p.add_variable(0.0, 2.0, 1.0);
    p.add_constraint({{0, 1.0}, {1, 1.0}}, lp::Relation::kGe, 5.0);
    add_solution(special, solver.solve(p));
  }
  {  // max x0 + x1 with x0 - x1 <= 1.
    lp::Problem p;
    p.set_maximize(true);
    p.add_variable(0.0, lp::kInfinity, 1.0);
    p.add_variable(0.0, lp::kInfinity, 1.0);
    p.add_constraint({{0, 1.0}, {1, -1.0}}, lp::Relation::kLe, 1.0);
    add_solution(special, solver.solve(p));
  }
  EXPECT_EQ(special.hex(), "ec7b36a211366868");

  const Network net = uniform_relu_net(29, {84, 10, 10, 10, 10, 1});
  Rng rng(30);
  Box box(84);
  for (Interval& iv : box) {
    const double c = rng.uniform(-1.0, 1.0);
    iv = Interval{c - 0.05, c + 0.05};
  }
  const std::vector<LayerBounds> bounds = symbolic_bounds(net, box);
  lp::Problem relax = relaxation_lp(box, {});
  std::vector<int> prev(box.size());
  for (std::size_t i = 0; i < prev.size(); ++i) prev[i] = static_cast<int>(i);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    std::vector<int> cur(net.layer(li).out_size());
    for (std::size_t r = 0; r < cur.size(); ++r) {
      cur[r] = append_relaxed_neuron(relax, net.layer(li), r, prev,
                                     bounds[li].pre[r]);
    }
    prev = std::move(cur);
  }
  relax.set_objective(prev[0], 1.0);
  BitHash triangle;
  for (const bool maximize : {true, false}) {
    relax.set_maximize(maximize);
    add_solution(triangle, solver.solve(relax));
  }
  EXPECT_EQ(triangle.hex(), "816b72fcec19d076");
}

// The kept basis (lp::Simplex): re-optimizations and re-solves over the
// seeded LPs (warm answers, an infeasible one, declines and the rebuilds
// after them), then branch-and-bound-like warm re-solves over the MILP
// relaxation of an 84-input I4x10 network: binaries fixed, flipped and
// freed, a dive whose flip is proved infeasible warm, and the root again.
// Each answer's status, objective, values and iterations, and every
// decline, enter the hash, so a change to the dual pass, its decline rules
// or the re-optimization shows. Recorded from the default Release build.
TEST(Bits, WarmSimplexIsPinned) {
  BitHash reopt;
  std::uint64_t seed = 41;
  for (const auto& [n, m] :
       std::vector<std::pair<int, int>>{{3, 2}, {9, 6}, {14, 11}, {23, 17}, {40, 31}}) {
    const lp::Problem p = seeded_lp(seed, n, m);
    Rng rng(seed++);
    lp::Simplex simplex(p);
    std::vector<double> c(static_cast<std::size_t>(n));
    for (int k = 0; k < 4; ++k) {
      for (double& v : c) v = rng.uniform(-1.0, 1.0);
      add_solution(reopt, simplex.optimize(c, k % 2 == 0));
    }
    // Re-solves under the LP's own objective: each boxed column's domain
    // halved toward a random end, then its lower bound dropped (a column
    // its cost pushes down is held at its old bound and would rest inside
    // the new domain: a decline), then the original bounds.
    std::vector<double> lo, hi;
    for (int j = 0; j < n; ++j) {
      c[static_cast<std::size_t>(j)] = p.variable(j).objective;
      lo.push_back(p.variable(j).lower);
      hi.push_back(p.variable(j).upper);
    }
    add_solution(reopt, simplex.optimize(c, p.maximize()));
    const std::vector<double> lo0 = lo, hi0 = hi;
    auto resolve = [&] {
      std::optional<lp::Solution> s = simplex.resolve(lo, hi);
      reopt.add(s ? 0.0 : 1.0);
      if (!s) {
        simplex.rebuild(lo, hi);
        s = simplex.optimize(c, p.maximize());
      }
      add_solution(reopt, *s);
    };
    for (std::size_t j = 0; j < lo.size(); j += 5) {
      const double mid = 0.5 * (lo[j] + hi[j]);
      (rng.bernoulli(0.5) ? lo[j] : hi[j]) = mid;
    }
    resolve();
    for (std::size_t j = 0; j < lo.size(); j += 5) lo[j] = -lp::kInfinity;
    resolve();
    lo = lo0;
    hi = hi0;
    resolve();
  }
  EXPECT_EQ(reopt.hex(), "de3a302ee0eff126");

  const Network net = uniform_relu_net(29, {84, 10, 10, 10, 10, 1});
  Rng rng(31);
  InputRegion region;
  region.box = Box(84);
  for (Interval& iv : region.box) {
    const double c = rng.uniform(-1.0, 1.0);
    iv = Interval{c - 0.2, c + 0.2};
  }
  EncodedNetwork enc = encode_network(net, region);
  enc.model.set_objective(enc.output_vars[0], 1.0);
  enc.model.set_maximize(true);
  const lp::Problem& p = enc.model.problem();
  const std::vector<int>& binaries = enc.model.integral_variables();
  ASSERT_GE(binaries.size(), 4u);
  std::vector<double> objective, lo, hi;
  for (int j = 0; j < p.num_variables(); ++j) {
    objective.push_back(p.variable(j).objective);
    lo.push_back(p.variable(j).lower);
    hi.push_back(p.variable(j).upper);
  }
  lp::Simplex simplex(p);
  BitHash warm;
  add_solution(warm, simplex.optimize(objective, true));
  auto node = [&] {
    std::optional<lp::Solution> s = simplex.resolve(lo, hi);
    warm.add(s ? 0.0 : 1.0);
    if (!s) {
      simplex.rebuild(lo, hi);
      s = simplex.optimize(objective, true);
    }
    add_solution(warm, *s);
  };
  auto fix = [&](std::size_t k, double v) {
    const auto j = static_cast<std::size_t>(binaries[k]);
    lo[j] = hi[j] = v;
  };
  auto free = [&](std::size_t k) {
    const auto j = static_cast<std::size_t>(binaries[k]);
    lo[j] = 0.0;
    hi[j] = 1.0;
  };
  const std::size_t used = std::min<std::size_t>(binaries.size(), 10);
  for (std::size_t k = 0; k < used; ++k) {  // each binary up, down, free
    fix(k, 1.0);
    node();
    fix(k, 0.0);
    node();
    free(k);
    node();
  }
  for (std::size_t k = 0; k < used; ++k) {  // a dive, flipped, then freed
    fix(k, k % 3 == 0 ? 1.0 : 0.0);
    node();
  }
  for (std::size_t k = 0; k < used; ++k) fix(k, 1.0 - lo[static_cast<std::size_t>(binaries[k])]);
  node();
  for (std::size_t k = 0; k < used; ++k) free(k);
  node();
  EXPECT_EQ(warm.hex(), "188e7631356900a5");
}

}  // namespace
}  // namespace safenn::verify

// ---------------------------------------------------------------------------
// Ground truth (appended suite). Seeded ReLU networks small enough to
// enumerate: 2-3 inputs and at most 12 hidden ReLUs over a box, a quarter
// of them with one side constraint. The exact maximum comes from one cold
// LP per activation pattern (a depth-first walk over the hidden neurons
// that drops a pattern prefix once its LP is infeasible), and every
// engine is checked against it: the MILP's and input splitting's maxima,
// the LP-tightened bounds, and the deterministic portfolio just above and
// just below it.
// ---------------------------------------------------------------------------

namespace safenn::verify {
namespace {

constexpr std::uint64_t kGroundTruthSeeds = 200;

struct GroundTruth {
  Network net;
  InputRegion region;
  OutputExpr expr;
  /// The largest network value at a pattern LP's optimum.
  double max_value = -std::numeric_limits<double>::infinity();
  /// Every feasible pattern's LP optimum.
  std::vector<Vector> optima;
  long patterns = 0;
};

/// The LP of an activation-pattern prefix: the region, plus z >= 0 for
/// each active and z <= 0 for each inactive neuron among the first
/// phase.size() hidden neurons (layer by layer), each z written as an
/// affine form of the inputs under the earlier phases. A full pattern
/// makes the network affine on its cell, and the LP maximizes the output
/// expression there.
lp::Problem pattern_lp(const GroundTruth& g, const std::vector<int>& phase) {
  const std::size_t n = g.net.input_size();
  lp::Problem p;
  for (const Interval& iv : g.region.box) p.add_variable(iv.lo, iv.hi);
  for (const InputConstraint& c : g.region.constraints) {
    p.add_constraint(c.terms, c.relation, c.rhs);
  }
  // The previous layer's outputs as affine forms: coef[c][i], constant[c].
  std::vector<std::vector<double>> coef(n, std::vector<double>(n, 0.0));
  std::vector<double> constant(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) coef[i][i] = 1.0;
  std::size_t k = 0;
  for (std::size_t li = 0; li < g.net.num_layers(); ++li) {
    const nn::DenseLayer& layer = g.net.layer(li);
    const bool relu = layer.activation() == Activation::kRelu;
    std::vector<std::vector<double>> next(layer.out_size(),
                                          std::vector<double>(n, 0.0));
    std::vector<double> next_constant(layer.out_size(), 0.0);
    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      std::vector<double> z(n, 0.0);
      double z0 = layer.biases()[r];
      for (std::size_t c = 0; c < layer.in_size(); ++c) {
        const double w = layer.weights()(r, c);
        for (std::size_t i = 0; i < n; ++i) z[i] += w * coef[c][i];
        z0 += w * constant[c];
      }
      if (relu) {
        if (k == phase.size()) return p;  // the prefix ends here
        lp::LinearTerms terms;
        for (std::size_t i = 0; i < n; ++i) {
          terms.emplace_back(static_cast<int>(i), z[i]);
        }
        p.add_constraint(std::move(terms),
                         phase[k] ? lp::Relation::kGe : lp::Relation::kLe,
                         -z0);
        if (!phase[k++]) continue;  // inactive: the output stays 0
      }
      next[r] = z;
      next_constant[r] = z0;
    }
    coef = std::move(next);
    constant = std::move(next_constant);
  }
  for (const auto& [out, a] : g.expr.terms) {
    for (std::size_t i = 0; i < n; ++i) {
      p.set_objective(static_cast<int>(i),
                      p.variable(static_cast<int>(i)).objective +
                          a * coef[static_cast<std::size_t>(out)][i]);
    }
  }
  p.set_maximize(true);
  return p;
}

void enumerate_patterns(GroundTruth& g, std::vector<int>& phase,
                        std::size_t hidden) {
  const lp::Solution s = lp::SimplexSolver().solve(pattern_lp(g, phase));
  if (s.status != lp::SolveStatus::kOptimal) return;  // an empty cell
  if (phase.size() < hidden) {
    for (const int active : {1, 0}) {
      phase.push_back(active);
      enumerate_patterns(g, phase, hidden);
      phase.pop_back();
    }
    return;
  }
  ++g.patterns;
  Vector x(s.values.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = s.values[i];
  g.max_value = std::max(g.max_value, g.expr.evaluate(g.net.forward(x)));
  g.optima.push_back(std::move(x));
}

/// Seed `seed`'s query and its exact maximum.
GroundTruth ground_truth(std::uint64_t seed) {
  Rng rng(1000003 * seed + 7);
  const std::size_t inputs = 2 + rng.uniform_index(2);
  const std::size_t outputs = 1 + rng.uniform_index(2);
  std::vector<std::size_t> widths{inputs};
  if (rng.bernoulli(0.5)) {
    widths.push_back(4 + rng.uniform_index(9));  // 4..12
  } else {
    widths.push_back(2 + rng.uniform_index(5));  // 2..6
    widths.push_back(2 + rng.uniform_index(5));  // 2..6
  }
  widths.push_back(outputs);
  GroundTruth g;
  g.net = uniform_relu_net(seed, widths);
  g.region.box = Box(inputs);
  for (Interval& iv : g.region.box) {
    const double c = rng.uniform(-1.0, 1.0);
    const double w = rng.uniform(0.2, 1.0);
    iv = Interval{c - w, c + w};
  }
  if (seed % 4 == 3) {  // a cut through the box's centre, kept non-empty
    const int a = static_cast<int>(rng.uniform_index(inputs));
    const int b = static_cast<int>((static_cast<std::size_t>(a) + 1) % inputs);
    const double ca = rng.uniform(-1.0, 1.0), cb = rng.uniform(-1.0, 1.0);
    const Interval& ia = g.region.box[static_cast<std::size_t>(a)];
    const Interval& ib = g.region.box[static_cast<std::size_t>(b)];
    const double centre =
        ca * 0.5 * (ia.lo + ia.hi) + cb * 0.5 * (ib.lo + ib.hi);
    const bool le = rng.bernoulli(0.5);
    const double margin = rng.uniform(0.0, 0.3);
    g.region.constraints.push_back(InputConstraint{
        {{a, ca}, {b, cb}},
        le ? lp::Relation::kLe : lp::Relation::kGe,
        le ? centre + margin : centre - margin});
  }
  g.expr.terms = {{0, 1.0}};
  if (outputs == 2) g.expr.terms.emplace_back(1, -0.5);

  std::size_t hidden = 0;
  for (std::size_t l = 1; l + 1 < widths.size(); ++l) hidden += widths[l];
  std::vector<int> phase;
  enumerate_patterns(g, phase, hidden);
  return g;
}

TEST(GroundTruth, MilpAndInputSplitMatchEnumeration) {
  InputSplitOptions split;
  split.gap_tol = 1e-7;
  split.max_boxes = 100000;
  for (std::uint64_t seed = 0; seed < kGroundTruthSeeds; ++seed) {
    const GroundTruth g = ground_truth(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_GT(g.patterns, 0);

    const MaximizeResult m = MilpVerifier().maximize(g.net, g.region, g.expr);
    EXPECT_EQ(m.status, milp::MilpStatus::kOptimal);
    ASSERT_TRUE(m.has_value);
    EXPECT_NEAR(m.max_value, g.max_value, 1e-6);
    EXPECT_GE(m.upper_bound, g.max_value - 1e-9);

    const InputSplitResult s =
        InputSplitVerifier(split).maximize(g.net, g.region, g.expr);
    EXPECT_TRUE(s.exact);
    ASSERT_TRUE(s.has_value);
    EXPECT_NEAR(s.max_value, g.max_value, 1e-6);
    EXPECT_GE(s.upper_bound, g.max_value - 1e-9);
  }
}

TEST(GroundTruth, LpTightenedBoundsContainEveryPattern) {
  for (std::uint64_t seed = 0; seed < kGroundTruthSeeds; ++seed) {
    const GroundTruth g = ground_truth(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<LayerBounds> bounds =
        lp_tightened_bounds(g.net, g.region);
    std::vector<Vector> points = g.optima;
    Rng rng(seed + 5000);
    for (int t = 0; t < 1000; ++t) {
      Vector x(g.region.dims());
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.uniform(g.region.box[i].lo, g.region.box[i].hi);
      }
      if (g.region.contains(x)) points.push_back(std::move(x));
    }
    long outside = 0;
    std::string first;
    for (const Vector& x : points) {
      const nn::ForwardTrace trace = g.net.forward_trace(x);
      for (std::size_t li = 0; li < bounds.size(); ++li) {
        for (std::size_t r = 0; r < bounds[li].pre.size(); ++r) {
          const double z = trace.pre_activations[li][r];
          const double y = trace.post_activations[li][r];
          const Interval& pre = bounds[li].pre[r];
          const Interval& post = bounds[li].post[r];
          if (z < pre.lo - 1e-6 || z > pre.hi + 1e-6 ||
              y < post.lo - 1e-6 || y > post.hi + 1e-6) {
            if (outside++ == 0) {
              first = "layer " + std::to_string(li) + " neuron " +
                      std::to_string(r) + " z " + std::to_string(z);
            }
          }
        }
      }
    }
    EXPECT_EQ(outside, 0) << first;
  }
}

TEST(GroundTruth, PortfolioDecidesAroundTruthAtEveryWorkerCount) {
  for (std::uint64_t seed = 0; seed < kGroundTruthSeeds; ++seed) {
    const GroundTruth g = ground_truth(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    SafetyProperty prop;
    prop.region = g.region;
    prop.expr = g.expr;
    for (const auto& [margin, expected] :
         {std::pair{1e-3, Verdict::kProved},
          std::pair{-1e-3, Verdict::kViolated}}) {
      prop.threshold = g.max_value + margin;
      PortfolioResult first;
      for (const int workers : {1, 2, 4}) {
        PortfolioOptions o;
        o.deterministic = true;
        o.num_workers = workers;
        const PortfolioResult r = PortfolioVerifier(o).prove(g.net, prop);
        EXPECT_EQ(r.verdict, expected) << "workers " << workers;
        if (workers == 1) {
          first = r;
          continue;
        }
        EXPECT_EQ(r.verdict, first.verdict) << "workers " << workers;
        EXPECT_EQ(r.winner, first.winner) << "workers " << workers;
        EXPECT_EQ(r.upper_bound, first.upper_bound) << "workers " << workers;
        EXPECT_EQ(r.has_value, first.has_value) << "workers " << workers;
        EXPECT_EQ(r.max_value, first.max_value) << "workers " << workers;
        EXPECT_EQ(std::vector<double>(r.witness.data(),
                                      r.witness.data() + r.witness.size()),
                  std::vector<double>(first.witness.data(),
                                      first.witness.data() +
                                          first.witness.size()))
            << "workers " << workers;
      }
    }
  }
}

}  // namespace
}  // namespace safenn::verify
