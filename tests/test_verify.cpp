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
  VerifierOptions plain;
  plain.warm_start_samples = 0;
  VerifierOptions hybrid;
  hybrid.warm_start_split_seconds = 0.5;
  const MaximizeResult a = MilpVerifier(plain).maximize(net, region, expr);
  const MaximizeResult b = MilpVerifier(hybrid).maximize(net, region, expr);
  ASSERT_EQ(a.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(b.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(a.max_value, b.max_value, 1e-6);
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
// workers, a symbolic pass and an input-split maximization — recorded
// from the default Release build. Weights and inputs come from
// Rng::uniform and the nets are ReLU/identity trained without Adam, so no
// libm call enters a hash: every build of the one float arithmetic (SIMD
// kernels on or off, -march=native, sanitizers) must reproduce them.
// ---------------------------------------------------------------------------

#include "common/hash.hpp"
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

}  // namespace
}  // namespace safenn::verify
