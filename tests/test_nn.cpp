#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "linalg/verify_kernels.hpp"
#include "nn/loss.hpp"
#include "nn/mdn.hpp"
#include "nn/network.hpp"
#include "nn/qengine.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"

namespace safenn::nn {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(Activation, ValuesMatchDefinitions) {
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kIdentity, -1.5), -1.5);
  EXPECT_NEAR(activate(Activation::kTanh, 1.0), std::tanh(1.0), 1e-15);
  EXPECT_NEAR(activate(Activation::kAtan, 1.0), std::atan(1.0), 1e-15);
  EXPECT_NEAR(activate(Activation::kSigmoid, 0.0), 0.5, 1e-15);
}

TEST(Activation, DerivativesMatchFiniteDifferences) {
  const double h = 1e-6;
  for (Activation a : {Activation::kIdentity, Activation::kTanh,
                       Activation::kAtan, Activation::kSigmoid}) {
    for (double x : {-2.0, -0.3, 0.1, 1.7}) {
      const double fd = (activate(a, x + h) - activate(a, x - h)) / (2 * h);
      EXPECT_NEAR(activate_derivative(a, x), fd, 1e-6)
          << to_string(a) << " at " << x;
    }
  }
  EXPECT_DOUBLE_EQ(activate_derivative(Activation::kRelu, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(activate_derivative(Activation::kRelu, 1.0), 1.0);
}

TEST(Activation, BranchMetadataMatchesPaperArgument) {
  // Paper Sec. II: atan has no if-then-else branch; ReLU has one per neuron.
  EXPECT_EQ(branch_count(Activation::kAtan), 0);
  EXPECT_EQ(branch_count(Activation::kTanh), 0);
  EXPECT_EQ(branch_count(Activation::kRelu), 1);
  EXPECT_TRUE(is_piecewise_linear(Activation::kRelu));
  EXPECT_FALSE(is_piecewise_linear(Activation::kAtan));
}

TEST(Activation, StringRoundTrip) {
  for (Activation a : {Activation::kIdentity, Activation::kRelu,
                       Activation::kTanh, Activation::kAtan,
                       Activation::kSigmoid}) {
    EXPECT_EQ(activation_from_string(to_string(a)), a);
  }
  EXPECT_THROW(activation_from_string("swish"), Error);
}

TEST(DenseLayer, ForwardMatchesManualComputation) {
  DenseLayer l(2, 2, Activation::kRelu);
  l.weights() = Matrix{{1.0, -1.0}, {2.0, 0.5}};
  l.biases() = Vector{0.5, -3.0};
  const Vector y = l.forward(Vector{1.0, 2.0});
  // z = [1-2+0.5, 2+1-3] = [-0.5, 0] -> relu -> [0, 0]
  EXPECT_TRUE(approx_equal(y, Vector{0.0, 0.0}));
  const Vector z = l.pre_activation(Vector{1.0, 2.0});
  EXPECT_TRUE(approx_equal(z, Vector{-0.5, 0.0}));
}

TEST(Network, LayerWidthMismatchThrows) {
  Network net;
  net.add_layer(DenseLayer(3, 4, Activation::kRelu));
  EXPECT_THROW(net.add_layer(DenseLayer(5, 2, Activation::kIdentity)), Error);
}

TEST(Network, TopologyQueries) {
  Rng rng(1);
  Network net = Network::make_i4xn(84, 10, 15, Activation::kRelu, rng);
  EXPECT_EQ(net.num_layers(), 5u);
  EXPECT_EQ(net.input_size(), 84u);
  EXPECT_EQ(net.output_size(), 15u);
  EXPECT_EQ(net.num_neurons(), 4u * 10u + 15u);
  EXPECT_EQ(net.describe(), "84-10-10-10-10-15 (relu)");
}

TEST(Network, ForwardTraceConsistentWithForward) {
  Rng rng(2);
  Network net = Network::make_mlp({3, 5, 4, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  const Vector x{0.3, -0.7, 1.2};
  const ForwardTrace trace = net.forward_trace(x);
  EXPECT_TRUE(approx_equal(trace.post_activations.back(), net.forward(x)));
  EXPECT_EQ(trace.pre_activations.size(), 3u);
  // Post-activations must equal activation applied to pre-activations.
  for (std::size_t li = 0; li < 3; ++li) {
    EXPECT_TRUE(approx_equal(
        trace.post_activations[li],
        activate(net.layer(li).activation(), trace.pre_activations[li])));
  }
}

// Gradient check: backprop vs. central finite differences.
class BackpropGradCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackpropGradCheck, MatchesFiniteDifferences) {
  Rng rng(GetParam());
  Network net = Network::make_mlp({4, 6, 5, 3}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  Vector x(4), target(3);
  for (auto& v : x) v = rng.normal();
  for (auto& v : target) v = rng.normal();
  MseLoss loss;

  const ForwardTrace trace = net.forward_trace(x);
  Vector out_grad;
  loss.value_and_grad(trace.post_activations.back(), target, out_grad);
  const Gradients analytic = net.backward(trace, out_grad);

  const double h = 1e-6;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    // Spot-check a handful of weights per layer.
    for (int probe = 0; probe < 4; ++probe) {
      const std::size_t r = rng.uniform_index(net.layer(li).out_size());
      const std::size_t c = rng.uniform_index(net.layer(li).in_size());
      const double saved = net.layer(li).weights()(r, c);
      net.layer(li).weights()(r, c) = saved + h;
      const double lp = loss.value(net.forward(x), target);
      net.layer(li).weights()(r, c) = saved - h;
      const double lm = loss.value(net.forward(x), target);
      net.layer(li).weights()(r, c) = saved;
      const double fd = (lp - lm) / (2 * h);
      EXPECT_NEAR(analytic.weight_grads[li](r, c), fd, 1e-4)
          << "layer " << li << " weight (" << r << "," << c << ")";
    }
    const std::size_t bi = rng.uniform_index(net.layer(li).out_size());
    const double saved = net.layer(li).biases()[bi];
    net.layer(li).biases()[bi] = saved + h;
    const double lp = loss.value(net.forward(x), target);
    net.layer(li).biases()[bi] = saved - h;
    const double lm = loss.value(net.forward(x), target);
    net.layer(li).biases()[bi] = saved;
    EXPECT_NEAR(analytic.bias_grads[li][bi], (lp - lm) / (2 * h), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackpropGradCheck,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(Network, InputGradientMatchesFiniteDifferences) {
  Rng rng(5);
  Network net = Network::make_mlp({3, 8, 2}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  const Vector x{0.2, -0.4, 0.9};
  const Vector g = net.input_gradient(x, 1);
  const double h = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    Vector xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double fd = (net.forward(xp)[1] - net.forward(xm)[1]) / (2 * h);
    EXPECT_NEAR(g[i], fd, 1e-6);
  }
}

TEST(Trainer, LearnsLinearMap) {
  Rng rng(7);
  Network net = Network::make_mlp({2, 8, 1}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  std::vector<Vector> xs, ys;
  for (int i = 0; i < 256; ++i) {
    Vector x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    ys.push_back(Vector{0.5 * x[0] - 0.25 * x[1]});
    xs.push_back(std::move(x));
  }
  MseLoss loss;
  TrainConfig cfg;
  cfg.epochs = 200;
  cfg.batch_size = 32;
  cfg.learning_rate = 5e-3;
  Trainer trainer(cfg);
  const double initial = Trainer::evaluate(net, loss, xs, ys);
  const double final_loss = trainer.train(net, loss, xs, ys);
  EXPECT_LT(final_loss, initial * 0.1);
  EXPECT_LT(final_loss, 1e-3);
}

TEST(Trainer, SgdAndMomentumAlsoDescend) {
  for (Optimizer opt : {Optimizer::kSgd, Optimizer::kMomentum}) {
    Rng rng(8);
    Network net = Network::make_mlp({1, 6, 1}, Activation::kTanh,
                                    Activation::kIdentity, rng);
    std::vector<Vector> xs, ys;
    for (int i = 0; i < 128; ++i) {
      Vector x{rng.uniform(-1, 1)};
      ys.push_back(Vector{x[0] * x[0]});
      xs.push_back(std::move(x));
    }
    MseLoss loss;
    TrainConfig cfg;
    cfg.optimizer = opt;
    cfg.epochs = 150;
    cfg.learning_rate = opt == Optimizer::kSgd ? 0.05 : 0.02;
    Trainer trainer(cfg);
    const double initial = Trainer::evaluate(net, loss, xs, ys);
    const double final_loss = trainer.train(net, loss, xs, ys);
    EXPECT_LT(final_loss, initial) << "optimizer " << static_cast<int>(opt);
  }
}

TEST(Trainer, EpochCallbackFires) {
  Rng rng(9);
  Network net = Network::make_mlp({1, 3, 1}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  std::vector<Vector> xs{Vector{0.5}}, ys{Vector{1.0}};
  MseLoss loss;
  TrainConfig cfg;
  cfg.epochs = 5;
  int calls = 0;
  cfg.on_epoch = [&](const EpochStats& s) {
    EXPECT_EQ(s.epoch, static_cast<std::size_t>(calls));
    ++calls;
  };
  Trainer(cfg).train(net, loss, xs, ys);
  EXPECT_EQ(calls, 5);
}

TEST(Trainer, RegularizerShapesSolution) {
  // Regularizer that pushes the single output toward <= 0 wins over data
  // pulling it to +1.
  Rng rng(10);
  Network net = Network::make_mlp({1, 4, 1}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  std::vector<Vector> xs, ys;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(Vector{rng.uniform(-1, 1)});
    ys.push_back(Vector{1.0});
  }
  MseLoss loss;
  TrainConfig cfg;
  cfg.epochs = 200;
  cfg.regularizer_weight = 50.0;
  cfg.regularizer = [](const Vector&, const Vector& out, Vector& grad) {
    const double excess = out[0];  // penalize positive outputs
    if (excess <= 0.0) return 0.0;
    grad[0] += 2.0 * excess;
    return excess * excess;
  };
  Trainer(cfg).train(net, loss, xs, ys);
  // With a 50x penalty the mean output must sit well below the +1 target.
  double mean = 0.0;
  for (const auto& x : xs) mean += net.forward(x)[0];
  mean /= static_cast<double>(xs.size());
  EXPECT_LT(mean, 0.5);
}

TEST(Mdn, HeadLayoutIndices) {
  MdnHead head(3, 2);
  EXPECT_EQ(head.raw_output_size(), 3u + 2u * 3u * 2u);
  EXPECT_EQ(head.logit_index(0), 0u);
  EXPECT_EQ(head.logit_index(2), 2u);
  EXPECT_EQ(head.mean_index(0, 0), 3u);
  EXPECT_EQ(head.mean_index(2, 1), 3u + 5u);
  EXPECT_EQ(head.log_sigma_index(0, 0), 9u);
  EXPECT_THROW(head.mean_index(3, 0), Error);
}

TEST(Mdn, ParseProducesNormalizedMixture) {
  MdnHead head(2, 2);
  Vector raw(head.raw_output_size());
  raw[head.logit_index(0)] = 1.0;
  raw[head.logit_index(1)] = -1.0;
  raw[head.mean_index(0, 0)] = 3.0;
  raw[head.log_sigma_index(1, 1)] = 0.5;
  const GaussianMixture gm = head.parse(raw);
  EXPECT_EQ(gm.components(), 2u);
  EXPECT_EQ(gm.dims(), 2u);
  EXPECT_NEAR(gm.weights[0] + gm.weights[1], 1.0, 1e-12);
  EXPECT_GT(gm.weights[0], gm.weights[1]);
  EXPECT_DOUBLE_EQ(gm.means[0][0], 3.0);
  EXPECT_NEAR(gm.sigmas[1][1], std::exp(0.5), 1e-12);
  EXPECT_EQ(gm.dominant_component(), 0u);
}

TEST(Mdn, MixtureMeanIsWeightedAverage) {
  GaussianMixture gm;
  gm.weights = {0.25, 0.75};
  gm.means = {Vector{4.0, 0.0}, Vector{0.0, 4.0}};
  gm.sigmas = {Vector{1.0, 1.0}, Vector{1.0, 1.0}};
  EXPECT_TRUE(approx_equal(gm.mean(), Vector{1.0, 3.0}));
}

TEST(Mdn, DensityIntegratesToRoughlyOne) {
  // Monte-Carlo check on a 1-component, 1-D mixture.
  GaussianMixture gm;
  gm.weights = {1.0};
  gm.means = {Vector{0.5}};
  gm.sigmas = {Vector{0.8}};
  double integral = 0.0;
  const int steps = 4000;
  const double lo = -6.0, hi = 7.0, dx = (hi - lo) / steps;
  for (int i = 0; i < steps; ++i) {
    integral += gm.density(Vector{lo + (i + 0.5) * dx}) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(Mdn, NllGradientMatchesFiniteDifferences) {
  MdnHead head(2, 2);
  Rng rng(11);
  Vector raw(head.raw_output_size());
  for (auto& v : raw) v = rng.normal() * 0.5;
  const Vector target{0.3, -0.6};
  Vector grad;
  head.nll(raw, target, &grad);
  const double h = 1e-6;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    Vector rp = raw, rm = raw;
    rp[i] += h;
    rm[i] -= h;
    const double fd = (head.nll(rp, target) - head.nll(rm, target)) / (2 * h);
    EXPECT_NEAR(grad[i], fd, 1e-5) << "raw index " << i;
  }
}

TEST(Mdn, TrainerFitsBimodalTarget) {
  // Data: y = +0.8 or -0.8 at random; a 2-component MDN should place one
  // component near each mode, while an MSE fit would collapse to ~0.
  Rng rng(12);
  MdnHead head(2, 1);
  Network net = Network::make_mlp({1, 8, head.raw_output_size()},
                                  Activation::kTanh, Activation::kIdentity,
                                  rng);
  std::vector<Vector> xs, ys;
  for (int i = 0; i < 400; ++i) {
    xs.push_back(Vector{rng.uniform(-1, 1)});
    ys.push_back(Vector{rng.bernoulli(0.5) ? 0.8 : -0.8});
  }
  MdnLoss loss{head};
  TrainConfig cfg;
  cfg.epochs = 120;
  cfg.learning_rate = 5e-3;
  Trainer(cfg).train(net, loss, xs, ys);
  const GaussianMixture gm = head.parse(net.forward(Vector{0.0}));
  const double m0 = gm.means[0][0], m1 = gm.means[1][0];
  EXPECT_GT(std::max(m0, m1), 0.4);
  EXPECT_LT(std::min(m0, m1), -0.4);
}

TEST(Serialize, RoundTripPreservesOutputs) {
  Rng rng(13);
  Network net = Network::make_mlp({4, 7, 3}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  std::stringstream ss;
  save_network(ss, net);
  Network loaded = load_network(ss);
  EXPECT_EQ(loaded.describe(), net.describe());
  for (int probe = 0; probe < 10; ++probe) {
    Vector x(4);
    for (auto& v : x) v = rng.normal();
    EXPECT_TRUE(approx_equal(loaded.forward(x), net.forward(x), 1e-12));
  }
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss("not-a-network at all");
  EXPECT_THROW(load_network(ss), Error);
}

TEST(Serialize, RejectsTruncatedFile) {
  Rng rng(14);
  Network net = Network::make_mlp({2, 3, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  std::stringstream ss;
  save_network(ss, net);
  std::string text = ss.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_network(truncated), Error);
}

// Every rejection path carries a typed kind so callers (registry, ops
// tooling) can distinguish corruption from version skew from bad input.
SerializeError::Kind load_kind(const std::string& text) {
  try {
    network_from_string(text);
  } catch (const SerializeError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected SerializeError for:\n" << text;
  return SerializeError::Kind::kIo;
}

TEST(Serialize, TypedErrorKindsCoverEveryRejection) {
  Rng rng(14);
  Network net = Network::make_mlp({2, 3, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  const std::string text = network_to_string(net);
  ASSERT_EQ(text.rfind("safenn-network v2\n", 0), 0u);

  // Not a network file at all.
  EXPECT_EQ(load_kind("not-a-network at all\n"),
            SerializeError::Kind::kBadMagic);
  EXPECT_EQ(load_kind(""), SerializeError::Kind::kBadMagic);

  // Recognized magic, unknown format version (both older and newer).
  for (const char* version : {"v1", "v99"}) {
    std::string skewed = text;
    skewed.replace(0, skewed.find('\n'),
                   std::string("safenn-network ") + version);
    EXPECT_EQ(load_kind(skewed), SerializeError::Kind::kUnsupportedVersion)
        << version;
  }

  // Truncation anywhere before the trailer loses the checksum line
  // (the trailer is "checksum <16-hex>\n" = 26 bytes).
  for (const std::size_t keep :
       {text.find('\n') + 1, text.size() / 2, text.size() - 27}) {
    EXPECT_EQ(load_kind(text.substr(0, keep)),
              SerializeError::Kind::kTruncated)
        << "kept " << keep << " of " << text.size();
  }

  // Truncation inside the trailer leaves a short, unparseable hex field.
  EXPECT_EQ(load_kind(text.substr(0, text.size() - 4)),
            SerializeError::Kind::kMalformed);

  // A single flipped payload digit no longer hashes to the recorded sum.
  {
    std::string corrupt = text;
    const std::size_t pos = corrupt.find("layers ") + 7;
    corrupt[pos] = corrupt[pos] == '7' ? '8' : '7';
    EXPECT_EQ(load_kind(corrupt), SerializeError::Kind::kChecksumMismatch);
  }

  // Unparseable checksum hex.
  {
    std::string bad = text;
    const std::size_t pos = bad.rfind("checksum ");
    bad.replace(pos, bad.size() - pos, "checksum not-hex\n");
    EXPECT_EQ(load_kind(bad), SerializeError::Kind::kMalformed);
  }

  // Checksum verifies but the payload itself is nonsense: the hash gate
  // is necessary, not sufficient — parsing still validates structure.
  {
    const std::string payload = "layers 1\nlayer bogus shape here\n";
    const std::string forged = "safenn-network v2\n" + payload +
                               "checksum " + hex64(fnv1a64(payload)) + '\n';
    EXPECT_EQ(load_kind(forged), SerializeError::Kind::kMalformed);
  }

  // The kind names are stable (they appear in registry reject reports).
  EXPECT_STREQ(to_string(SerializeError::Kind::kChecksumMismatch),
               "checksum-mismatch");
  EXPECT_STREQ(to_string(SerializeError::Kind::kUnsupportedVersion),
               "unsupported-version");
}

TEST(Serialize, NoPartialNetworkOnFailure) {
  // A corrupted stream must throw without yielding any network object —
  // exercised via the file round trip (load path used by the registry).
  Rng rng(15);
  Network net = Network::make_mlp({3, 4, 2}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  const std::string path =
      ::testing::TempDir() + "/safenn_serialize_partial.net";
  save_network_file(path, net);
  Network reloaded = load_network_file(path);
  EXPECT_EQ(reloaded.describe(), net.describe());

  // Corrupt one parameter byte on disk; the loader must reject it whole.
  std::string text;
  {
    std::ifstream is(path);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    text = buffer.str();
  }
  const std::size_t digit = text.find_first_of("0123456789", text.find("layer "));
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '9' ? '8' : '9';
  {
    std::ofstream os(path);
    os << text;
  }
  EXPECT_THROW(load_network_file(path), SerializeError);
  EXPECT_THROW(load_network_file(path + ".does-not-exist"), SerializeError);
}

TEST(Serialize, ChecksumIsTheSavedTrailer) {
  Rng rng(17);
  const Network net = Network::make_mlp({5, 8, 2}, Activation::kRelu,
                                        Activation::kIdentity, rng);
  const std::string text = network_to_string(net);
  EXPECT_EQ(text.substr(text.size() - 17, 16), hex64(network_checksum(net)));
}

std::string forge_network(const std::string& payload) {
  return "safenn-network v2\n" + payload + "checksum " +
         hex64(fnv1a64(payload)) + '\n';
}

// The checksum gate only proves the bytes are the recorded ones; a forged
// (or future-writer) payload must still have exactly the layout and
// number spelling save_network emits, or it is kMalformed.
TEST(Serialize, RejectsTokensTheWriterCannotEmit) {
  const std::string good = "layers 1\nlayer 2 1 identity\n0.5\n0.25 -1\n";
  EXPECT_EQ(network_to_string(network_from_string(forge_network(good))),
            forge_network(good));

  const std::pair<std::string, std::string> swaps[] = {
      {"0.25", "inf"},          {"0.25", "nan"},
      {"0.25", "+1"},           {"0.25", "0x1p3"},
      {"0.25", "1.5abc"},       {"0.25 -1", "0.25\t-1"},
      {"layer 2", "layer\t2"},  {"0.5\n", "0.5 \n"},
      {"0.5\n", "0.5\r\n"},    {"0.25 -1\n", "0.25\n-1\n"},
      {"layers 1", "layers +1"}, {"layer 2 1", "layer 2 -1"},
      {"identity", "softmax"},  {"layers 1", "layers 2"},
  };
  for (const auto& [from, to] : swaps) {
    std::string payload = good;
    payload.replace(payload.find(from), from.size(), to);
    EXPECT_EQ(load_kind(forge_network(payload)),
              SerializeError::Kind::kMalformed)
        << to;
  }
  // Trailing bytes, a shape the payload cannot hold, layers that do not
  // chain.
  EXPECT_EQ(load_kind(forge_network(good + "0\n")),
            SerializeError::Kind::kMalformed);
  EXPECT_EQ(load_kind(forge_network(
                "layers 1\nlayer 100000000 100000000 identity\n0\n")),
            SerializeError::Kind::kMalformed);
  EXPECT_EQ(load_kind(forge_network("layers 2\n" + good.substr(9) +
                                    "layer 2 1 identity\n0\n1 1\n")),
            SerializeError::Kind::kMalformed);
  // The trailer is exactly "checksum <16 hex>\n".
  const std::string text = forge_network(good);
  EXPECT_EQ(load_kind(text.substr(0, text.size() - 1)),
            SerializeError::Kind::kMalformed);
  EXPECT_EQ(load_kind(text + "\n"), SerializeError::Kind::kMalformed);
}

// Deterministic mutation sweep: byte flips at a fixed stride and a cut at
// every line start. Each input must end in a typed SerializeError or load
// a network that re-serializes to exactly the input bytes.
TEST(Serialize, MutationSweepEndsTypedOrRoundTrips) {
  Rng rng(16);
  const Network net = Network::make_mlp({4, 6, 3}, Activation::kRelu,
                                        Activation::kIdentity, rng);
  const std::string text = network_to_string(net);
  int round_trips = 0;
  const auto probe = [&](const std::string& input, const std::string& what) {
    try {
      const std::string again = network_to_string(network_from_string(input));
      EXPECT_EQ(again, input) << what;
      ++round_trips;
    } catch (const SerializeError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped " << e.what();
    }
  };
  for (std::size_t pos = 0; pos < text.size(); pos += 3) {
    for (const unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string mutated = text;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      probe(mutated, "flip " + std::to_string(mask) + " at " +
                         std::to_string(pos));
    }
  }
  for (std::size_t pos = 0; pos <= text.size(); ++pos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      probe(text.substr(0, pos), "cut at " + std::to_string(pos));
    }
  }
  EXPECT_EQ(round_trips, 1);  // only the uncut text loads
}

TEST(Quantize, FixedPointConversionsRoundTrip) {
  Rng rng(15);
  Network net = Network::make_mlp({2, 3, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 8);
  EXPECT_EQ(q.frac_bits(), 8);
  EXPECT_EQ(q.to_fixed(1.0), 256);
  EXPECT_DOUBLE_EQ(q.from_fixed(256), 1.0);
  EXPECT_EQ(q.to_fixed(-0.5), -128);
}

TEST(Quantize, ApproximatesRealNetwork) {
  Rng rng(16);
  Network net = Network::make_mlp({4, 10, 10, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 12);
  std::vector<Vector> samples;
  for (int i = 0; i < 50; ++i) {
    Vector x(4);
    for (auto& v : x) v = rng.uniform(-1, 1);
    samples.push_back(std::move(x));
  }
  EXPECT_LT(q.quantization_error(net, samples), 0.05);
}

TEST(Quantize, MoreBitsMeansLessError) {
  Rng rng(17);
  Network net = Network::make_mlp({3, 12, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  std::vector<Vector> samples;
  for (int i = 0; i < 40; ++i) {
    Vector x(3);
    for (auto& v : x) v = rng.uniform(-1, 1);
    samples.push_back(std::move(x));
  }
  const double err4 = QuantizedNetwork::quantize(net, 4).quantization_error(net, samples);
  const double err12 = QuantizedNetwork::quantize(net, 12).quantization_error(net, samples);
  EXPECT_LT(err12, err4);
}

TEST(Quantize, RejectsSmoothActivations) {
  Rng rng(18);
  Network net = Network::make_mlp({2, 3, 1}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  EXPECT_THROW(QuantizedNetwork::quantize(net, 8), Error);
}

TEST(Quantize, AccumulatorBoundsAreSound) {
  Rng rng(19);
  Network net = Network::make_mlp({3, 6, 4, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 8);
  const std::int64_t input_bound = q.to_fixed(1.0);
  const auto bounds = q.accumulator_bounds(input_bound);
  ASSERT_EQ(bounds.size(), 3u);
  // Empirically no accumulator magnitude may exceed the bound.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::int64_t> in(3);
    for (auto& v : in)
      v = q.to_fixed(rng.uniform(-1, 1));
    // Replay layer 0 accumulators by hand.
    const QuantizedLayer& l0 = q.layer(0);
    for (std::size_t r = 0; r < l0.out_size(); ++r) {
      std::int64_t acc = l0.biases[r];
      for (std::size_t c = 0; c < l0.in_size(); ++c)
        acc += l0.weights[r][c] * in[c];
      EXPECT_LE(std::llabs(acc), bounds[0]);
    }
  }
}

TEST(Quantize, FixedForwardMatchesRealForwardClosely) {
  Rng rng(20);
  Network net = Network::make_mlp({2, 6, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 16);
  for (int trial = 0; trial < 50; ++trial) {
    Vector x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const double exact = net.forward(x)[0];
    const double quant = q.forward_real(x)[0];
    EXPECT_NEAR(exact, quant, 0.01);
  }
}

// --- Batched kernels: equivalence with the per-sample path. ---

Matrix pack_rows(const std::vector<Vector>& xs) {
  Matrix m(xs.size(), xs.front().size());
  for (std::size_t r = 0; r < xs.size(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = xs[r][c];
  }
  return m;
}

std::vector<Vector> random_inputs(Rng& rng, std::size_t count,
                                  std::size_t dim) {
  std::vector<Vector> xs(count, Vector(dim));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.normal();
  }
  return xs;
}

TEST(Activation, BatchedOverloadMatchesScalar) {
  Rng rng(41);
  Matrix z(5, 7), out, dout;
  for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] = rng.normal();
  for (Activation a : {Activation::kIdentity, Activation::kRelu,
                       Activation::kTanh, Activation::kAtan,
                       Activation::kSigmoid}) {
    activate(a, z, out);
    activate_derivative(a, z, dout);
    ASSERT_EQ(out.rows(), 5u);
    ASSERT_EQ(dout.cols(), 7u);
    for (std::size_t r = 0; r < z.rows(); ++r) {
      for (std::size_t c = 0; c < z.cols(); ++c) {
        EXPECT_EQ(out(r, c), activate(a, z(r, c))) << to_string(a);
        EXPECT_EQ(dout(r, c), activate_derivative(a, z(r, c)))
            << to_string(a);
      }
    }
  }
}

class BatchedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, Activation>> {};

TEST_P(BatchedEquivalence, ForwardBatchBitwiseMatchesPerSample) {
  const auto [batch, hidden_act] = GetParam();
  Rng rng(50 + batch);
  Network net = Network::make_mlp({9, 13, 8, 4}, hidden_act,
                                  Activation::kIdentity, rng);
  const std::vector<Vector> xs = random_inputs(rng, batch, 9);
  const Matrix out = net.forward_batch(pack_rows(xs));
  ASSERT_EQ(out.rows(), batch);
  for (std::size_t r = 0; r < batch; ++r) {
    const Vector ref = net.forward(xs[r]);
    for (std::size_t c = 0; c < out.cols(); ++c) {
      ASSERT_EQ(out(r, c), ref[c]) << "row " << r << " col " << c;
    }
  }
}

TEST_P(BatchedEquivalence, TraceBatchBitwiseMatchesPerSampleTrace) {
  const auto [batch, hidden_act] = GetParam();
  Rng rng(70 + batch);
  Network net = Network::make_mlp({6, 11, 9, 3}, hidden_act,
                                  Activation::kIdentity, rng);
  const std::vector<Vector> xs = random_inputs(rng, batch, 6);
  BatchTrace trace;
  net.forward_trace_batch(pack_rows(xs), trace);
  ASSERT_EQ(trace.pre_activations.size(), net.num_layers());
  ASSERT_EQ(trace.post_activations.size(), net.num_layers());
  for (std::size_t r = 0; r < batch; ++r) {
    const ForwardTrace ref = net.forward_trace(xs[r]);
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      for (std::size_t c = 0; c < trace.pre_activations[li].cols(); ++c) {
        ASSERT_EQ(trace.pre_activations[li](r, c),
                  ref.pre_activations[li][c]);
        ASSERT_EQ(trace.post_activations[li](r, c),
                  ref.post_activations[li][c]);
      }
    }
  }
}

TEST_P(BatchedEquivalence, BackwardBatchMatchesSummedPerSample) {
  const auto [batch, hidden_act] = GetParam();
  Rng rng(90 + batch);
  Network net = Network::make_mlp({7, 10, 12, 5}, hidden_act,
                                  Activation::kIdentity, rng);
  const std::vector<Vector> xs = random_inputs(rng, batch, 7);
  const std::vector<Vector> out_grads_v = random_inputs(rng, batch, 5);

  // Per-sample reference: backward_into accumulates sample by sample in
  // row order.
  Gradients expected = net.zero_gradients();
  for (std::size_t b = 0; b < batch; ++b) {
    net.backward_into(net.forward_trace(xs[b]), out_grads_v[b], expected);
  }

  BatchTrace trace;
  net.forward_trace_batch(pack_rows(xs), trace);
  Gradients got = net.zero_gradients();
  net.backward_batch(trace, pack_rows(out_grads_v), got);

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const Matrix& we = expected.weight_grads[li];
    const Matrix& wg = got.weight_grads[li];
    for (std::size_t i = 0; i < we.size(); ++i) {
      ASSERT_EQ(wg.data()[i], we.data()[i]) << "layer " << li;
    }
    for (std::size_t i = 0; i < expected.bias_grads[li].size(); ++i) {
      ASSERT_EQ(got.bias_grads[li][i], expected.bias_grads[li][i])
          << "layer " << li << " bias " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchSizesAndActivations, BatchedEquivalence,
    ::testing::Combine(::testing::Values<std::size_t>(1, 7, 32),
                       ::testing::Values(Activation::kRelu,
                                         Activation::kTanh)));

TEST(Network, BackwardIntoAccumulatesAcrossCalls) {
  Rng rng(111);
  Network net = Network::make_mlp({4, 6, 3}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  Vector x(4), out_grad(3);
  for (auto& v : x) v = rng.normal();
  for (auto& v : out_grad) v = rng.normal();
  const ForwardTrace trace = net.forward_trace(x);

  const Gradients once = net.backward(trace, out_grad);
  Gradients twice = net.zero_gradients();
  net.backward_into(trace, out_grad, twice);
  net.backward_into(trace, out_grad, twice);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    for (std::size_t i = 0; i < twice.weight_grads[li].size(); ++i) {
      EXPECT_DOUBLE_EQ(twice.weight_grads[li].data()[i],
                       2.0 * once.weight_grads[li].data()[i]);
    }
    for (std::size_t i = 0; i < twice.bias_grads[li].size(); ++i) {
      EXPECT_DOUBLE_EQ(twice.bias_grads[li][i],
                       2.0 * once.bias_grads[li][i]);
    }
  }
}

// --- Data-parallel training: bitwise determinism across worker counts. ---

TEST(Network, ShardChainedAccumulationBitwiseMatchesFullBatch) {
  // The reduction-order lemma the parallel trainer stands on: chaining
  // accumulate_layer_gradients over contiguous row shards in ascending
  // shard order must equal one full-batch backward_batch bit for bit,
  // for any shard structure (here deliberately uneven: 5 + 1 + 7).
  Rng rng(120);
  Network net = Network::make_mlp({6, 9, 8, 4}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  const std::size_t batch = 13;
  const std::vector<Vector> xs = random_inputs(rng, batch, 6);
  const std::vector<Vector> gs = random_inputs(rng, batch, 4);

  BatchTrace full_trace;
  net.forward_trace_batch(pack_rows(xs), full_trace);
  Gradients expected = net.zero_gradients();
  net.backward_batch(full_trace, pack_rows(gs), expected);

  const std::size_t bounds[] = {0, 5, 6, 13};
  std::vector<BatchTrace> traces(3);
  std::vector<std::vector<Matrix>> deltas(3);
  for (std::size_t s = 0; s < 3; ++s) {
    const std::vector<Vector> sx(xs.begin() + bounds[s],
                                 xs.begin() + bounds[s + 1]);
    const std::vector<Vector> sg(gs.begin() + bounds[s],
                                 gs.begin() + bounds[s + 1]);
    net.forward_trace_batch(pack_rows(sx), traces[s]);
    net.backward_deltas_batch(traces[s], pack_rows(sg), deltas[s]);
  }
  Gradients got = net.zero_gradients();
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    for (std::size_t s = 0; s < 3; ++s) {
      net.accumulate_layer_gradients(traces[s], deltas[s][li], li, got);
    }
  }

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    for (std::size_t i = 0; i < expected.weight_grads[li].size(); ++i) {
      ASSERT_EQ(got.weight_grads[li].data()[i],
                expected.weight_grads[li].data()[i])
          << "layer " << li;
    }
    for (std::size_t i = 0; i < expected.bias_grads[li].size(); ++i) {
      ASSERT_EQ(got.bias_grads[li][i], expected.bias_grads[li][i])
          << "layer " << li;
    }
  }
}

TEST(TrainerEvaluate, BatchedBitwiseMatchesPerSample) {
  // 300 samples crosses the 256-row chunk boundary inside evaluate().
  Rng rng(130);
  Network net = Network::make_mlp({4, 10, 7, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  const std::vector<Vector> xs = random_inputs(rng, 300, 4);
  const std::vector<Vector> ys = random_inputs(rng, 300, 2);
  MseLoss loss;
  double expected = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expected += loss.value(net.forward(xs[i]), ys[i]);
  }
  expected /= static_cast<double>(xs.size());
  EXPECT_EQ(Trainer::evaluate(net, loss, xs, ys), expected);
}

/// One full training run at a given worker count; everything seeded, so
/// any two runs start from identical nets and data.
struct TrainRun {
  Network net;
  std::vector<double> epoch_losses;
  double final_loss = 0.0;
};

TrainRun run_parallel_training(std::size_t workers, bool force_parallel,
                               Optimizer opt, bool with_regularizer,
                               std::size_t samples = 83,
                               std::size_t batch_size = 16) {
  Rng rng(1234);
  TrainRun run;
  run.net = Network::make_mlp({5, 12, 9, 3}, Activation::kRelu,
                              Activation::kIdentity, rng);
  std::vector<Vector> xs = random_inputs(rng, samples, 5);
  std::vector<Vector> ys = random_inputs(rng, samples, 3);

  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = batch_size;
  cfg.learning_rate = 1e-2;
  cfg.optimizer = opt;
  cfg.grad_clip = 0.5;  // tight enough to trigger on some batches
  cfg.num_workers = workers;
  cfg.force_parallel_path = force_parallel;
  if (with_regularizer) {
    cfg.regularizer_weight = 2.0;
    cfg.regularizer = [](const Vector&, const Vector& out, Vector& grad) {
      double p = 0.0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        p += out[i] * out[i];
        grad[i] += 2.0 * out[i];
      }
      return p;
    };
  }
  cfg.on_epoch = [&](const EpochStats& s) {
    run.epoch_losses.push_back(s.mean_loss);
  };
  run.final_loss = Trainer(cfg).train(run.net, MseLoss{}, xs, ys);
  return run;
}

void expect_identical_runs(const TrainRun& a, const TrainRun& b,
                           const std::string& label) {
  ASSERT_EQ(a.epoch_losses.size(), b.epoch_losses.size()) << label;
  for (std::size_t e = 0; e < a.epoch_losses.size(); ++e) {
    EXPECT_EQ(a.epoch_losses[e], b.epoch_losses[e])
        << label << " epoch " << e;
  }
  EXPECT_EQ(a.final_loss, b.final_loss) << label;
  ASSERT_EQ(a.net.num_layers(), b.net.num_layers()) << label;
  for (std::size_t li = 0; li < a.net.num_layers(); ++li) {
    const Matrix& wa = a.net.layer(li).weights();
    const Matrix& wb = b.net.layer(li).weights();
    ASSERT_EQ(wa.size(), wb.size()) << label;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      ASSERT_EQ(wa.data()[i], wb.data()[i])
          << label << " layer " << li << " weight " << i;
    }
    const Vector& ba = a.net.layer(li).biases();
    const Vector& bb = b.net.layer(li).biases();
    for (std::size_t i = 0; i < ba.size(); ++i) {
      ASSERT_EQ(ba[i], bb[i]) << label << " layer " << li << " bias " << i;
    }
  }
}

class TrainerParallel : public ::testing::TestWithParam<Optimizer> {};

TEST_P(TrainerParallel, WeightsAndLossesBitwiseAcrossWorkerCounts) {
  const Optimizer opt = GetParam();
  // Reference: the fused sequential engine. (Matching it after 4 Adam
  // epochs forces the optimizer moments to match bit for bit at every
  // intermediate step too.)
  const TrainRun sequential =
      run_parallel_training(1, false, opt, /*with_regularizer=*/false);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const TrainRun parallel = run_parallel_training(
        workers, /*force_parallel=*/true, opt, /*with_regularizer=*/false);
    expect_identical_runs(sequential, parallel,
                          "workers=" + std::to_string(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(Optimizers, TrainerParallel,
                         ::testing::Values(Optimizer::kSgd,
                                           Optimizer::kMomentum,
                                           Optimizer::kAdam));

TEST(TrainerParallel, RegularizedRunIsBitwiseIdenticalAcrossWorkers) {
  const TrainRun sequential =
      run_parallel_training(1, false, Optimizer::kAdam, true);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const TrainRun parallel = run_parallel_training(
        workers, true, Optimizer::kAdam, /*with_regularizer=*/true);
    expect_identical_runs(sequential, parallel,
                          "regularized workers=" + std::to_string(workers));
  }
}

TEST(TrainerParallel, MoreWorkersThanBatchRowsHandlesEmptyShards) {
  // batch_size 3 with 4 workers leaves at least one shard empty every
  // batch (and the last batch of 83 % 3 = 2 rows leaves two empty).
  const TrainRun sequential = run_parallel_training(
      1, false, Optimizer::kAdam, false, /*samples=*/83, /*batch_size=*/3);
  const TrainRun parallel = run_parallel_training(
      4, true, Optimizer::kAdam, false, /*samples=*/83, /*batch_size=*/3);
  expect_identical_runs(sequential, parallel, "workers>batch");
}

TEST(SimdForward, BatchWithinToleranceOfReference) {
  // The kSimd backend reassociates the layer contractions, so the batched
  // forward is held to the summed per-layer dot tolerance (1-Lipschitz
  // activations do not amplify it) instead of bitwise equality.
  Rng rng(90);
  Network net = Network::make_mlp({12, 17, 9, 5}, Activation::kRelu,
                                  Activation::kTanh, rng);
  const std::vector<Vector> xs = random_inputs(rng, 33, 12);  // odd batch
  const Matrix x = pack_rows(xs);
  const Matrix ref = net.forward_batch(x);
  const Matrix simd = net.forward_batch(x, linalg::KernelBackend::kSimd);
  ASSERT_EQ(simd.rows(), ref.rows());
  double tolerance = 0.0;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    tolerance += linalg::dot_tolerance(net.layer(li).in_size());
  }
  EXPECT_LE(linalg::rms_range(ref.data(), simd.data(), ref.size()),
            tolerance);
}

TEST(SimdForward, ReluBatchActivationIsExact) {
  // ReLU is a max against zero — no rounding, so the SIMD activation must
  // match the scalar one exactly even though the GEMMs only match within
  // tolerance.
  Rng rng(91);
  Matrix z(7, 13);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z.data()[i] = rng.uniform(-1.0, 1.0);
  }
  z.data()[0] = -0.0;
  Matrix ref, simd;
  activate(Activation::kRelu, z, ref);
  activate(Activation::kRelu, z, simd, linalg::KernelBackend::kSimd);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.data()[i], simd.data()[i]) << "index " << i;
  }
}

TEST(Network, GradientsZeroResets) {
  Rng rng(112);
  Network net = Network::make_mlp({3, 4, 2}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  Vector x(3), out_grad(2);
  for (auto& v : x) v = rng.normal();
  for (auto& v : out_grad) v = rng.normal();
  Gradients g = net.zero_gradients();
  net.backward_into(net.forward_trace(x), out_grad, g);
  g.zero();
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    EXPECT_DOUBLE_EQ(g.weight_grads[li].norm_inf(), 0.0);
    EXPECT_DOUBLE_EQ(g.bias_grads[li].norm_inf(), 0.0);
  }
}

// --- Typed quantization errors + the packed batched engine. ---

TEST(QuantizeError, RejectsSmoothActivationsWithTypedKind) {
  Rng rng(18);
  Network net = Network::make_mlp({2, 3, 1}, Activation::kTanh,
                                  Activation::kIdentity, rng);
  try {
    QuantizedNetwork::quantize(net, 8);
    FAIL() << "expected QuantizeError";
  } catch (const QuantizeError& e) {
    EXPECT_EQ(e.kind(), QuantizeError::Kind::kUnsupportedActivation);
    EXPECT_STREQ(to_string(e.kind()), "unsupported-activation");
  }
}

TEST(QuantizeError, WeightBeyondFixedPointRangeIsTyped) {
  Rng rng(21);
  Network net = Network::make_mlp({1, 1}, Activation::kIdentity,
                                  Activation::kIdentity, rng);
  net.layer(0).weights()(0, 0) = 1e18;  // * 2^24 overflows int64
  try {
    QuantizedNetwork::quantize(net, 24);
    FAIL() << "expected QuantizeError";
  } catch (const QuantizeError& e) {
    EXPECT_EQ(e.kind(), QuantizeError::Kind::kWeightRange);
  }
}

// The rejection boundary: accumulator bound propagation must refuse
// (typed, never wraparound) exactly when the worst case leaves int64.
TEST(QuantizeError, AccumulatorOverflowBoundaryIsTyped) {
  const std::int64_t huge = std::int64_t{1} << 62;
  QuantizedLayer l;
  l.weights = {{huge}};
  l.biases = {0};
  l.activation = Activation::kIdentity;
  QuantizedNetwork qnet(8, {l});
  // Bound 2^62 * 4 overflows; 2^62 * 1 + 0 still fits.
  EXPECT_NO_THROW(qnet.accumulator_bounds(1));
  try {
    qnet.accumulator_bounds(4);
    FAIL() << "expected QuantizeError";
  } catch (const QuantizeError& e) {
    EXPECT_EQ(e.kind(), QuantizeError::Kind::kAccumulatorOverflow);
  }
  // The bias addition is checked too: weight*bound + bias must not wrap.
  QuantizedLayer l2;
  l2.weights = {{huge}};
  l2.biases = {huge};
  QuantizedNetwork qnet2(8, {l2});
  EXPECT_THROW(qnet2.accumulator_bounds(2), QuantizeError);
}

TEST(QuantizeError, QuantizeChecksBoundsOverDeclaredDomain) {
  Rng rng(22);
  Network net = Network::make_mlp({1, 1}, Activation::kIdentity,
                                  Activation::kIdentity, rng);
  net.layer(0).weights()(0, 0) = 1e11;
  // The scaled weight fits fixed point at 12 bits (1e11 * 2^12 ~ 2^48.5)
  // and the accumulator fits for |x| <= 1, but a wide input domain
  // pushes the worst case past int64.
  EXPECT_NO_THROW(QuantizedNetwork::quantize(net, 12, 1.0));
  try {
    QuantizedNetwork::quantize(net, 12, 1e7);
    FAIL() << "expected QuantizeError";
  } catch (const QuantizeError& e) {
    EXPECT_EQ(e.kind(), QuantizeError::Kind::kAccumulatorOverflow);
  }
}

TEST(QuantizedNetwork, ScratchForwardBitwiseEqualsAllocatingForward) {
  Rng rng(23);
  Network net = Network::make_mlp({4, 9, 7, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 10);
  FixedScratch scratch;
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::int64_t> in(4);
    for (auto& v : in) v = q.to_fixed(rng.uniform(-1, 1));
    const std::vector<std::int64_t> alloc = q.forward_fixed(in);
    const std::vector<std::int64_t>& reused = q.forward_fixed(in, scratch);
    ASSERT_EQ(alloc, reused);
  }
}

TEST(QuantizedEngine, PackedForwardBitwiseEqualsScalarReference) {
  Rng rng(24);
  // Odd widths on purpose: remainder lanes in every layer.
  Network net = Network::make_mlp({5, 11, 7, 3}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 10);
  for (const auto backend : {linalg::KernelBackend::kReference,
                             linalg::KernelBackend::kSimd,
                             linalg::KernelBackend::kQuantized}) {
    const QuantizedEngine engine(q, 2.0, backend);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{32}}) {
      std::vector<std::vector<std::int64_t>> inputs(batch);
      for (auto& row : inputs) {
        row.resize(5);
        for (auto& v : row) v = q.to_fixed(rng.uniform(-2, 2));
      }
      const auto batched = engine.forward_fixed_batch(inputs);
      ASSERT_EQ(batched.size(), batch);
      for (std::size_t i = 0; i < batch; ++i) {
        const std::vector<std::int64_t> scalar = q.forward_fixed(inputs[i]);
        ASSERT_EQ(batched[i], scalar)
            << "backend " << to_string(backend) << " batch " << batch
            << " row " << i;
        ASSERT_EQ(engine.forward_fixed(inputs[i]), scalar);
      }
    }
  }
}

TEST(QuantizedNetwork, ForwardFixedBatchBitwiseAcrossBackends) {
  Rng rng(25);
  Network net = Network::make_mlp({3, 8, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 8);
  std::vector<std::vector<std::int64_t>> inputs(13);
  for (auto& row : inputs) {
    row.resize(3);
    for (auto& v : row) v = q.to_fixed(rng.uniform(-1.5, 1.5));
  }
  const auto ref = q.forward_fixed_batch(inputs,
                                         linalg::KernelBackend::kReference);
  const auto quant = q.forward_fixed_batch(
      inputs, linalg::KernelBackend::kQuantized);
  EXPECT_EQ(ref, quant);
  EXPECT_TRUE(q.forward_fixed_batch({}).empty());
}

TEST(QuantizedEngine, RejectsWeightsBeyondInt16) {
  QuantizedLayer l;
  l.weights = {{40000}};  // > 32767
  l.biases = {0};
  QuantizedNetwork qnet(8, {l});
  try {
    QuantizedEngine engine(qnet, 1.0);
    FAIL() << "expected QuantizeError";
  } catch (const QuantizeError& e) {
    EXPECT_EQ(e.kind(), QuantizeError::Kind::kWeightRange);
  }
}

TEST(QuantizedEngine, RejectsIntermediateActivationsBeyondInt32) {
  // Layer 0 amplifies by 2^15 twice: the intermediate activation bound
  // blows past int32 while everything still fits int64.
  QuantizedLayer big;
  big.weights = {{std::int64_t{32767}}};
  big.biases = {0};
  big.activation = Activation::kIdentity;
  QuantizedNetwork qnet(8, {big, big});
  try {
    // Layer-0 value bound: 1e6 * 2^8 * 32767 >> 8 ~ 2^44.9 >> int32.
    QuantizedEngine engine(qnet, 1e6);
    FAIL() << "expected QuantizeError";
  } catch (const QuantizeError& e) {
    EXPECT_EQ(e.kind(), QuantizeError::Kind::kActivationRange);
  }
  // The same product on the FINAL layer is fine — outputs stay int64.
  QuantizedNetwork single(8, {big});
  EXPECT_NO_THROW(QuantizedEngine(single, 1e6));
}

TEST(QuantizedEngine, SaturatingConversionClampsToDeclaredDomain) {
  Rng rng(26);
  Network net = Network::make_mlp({2, 3, 1}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 8);
  const QuantizedEngine engine(q, 1.0);
  EXPECT_EQ(engine.to_fixed(0.5), q.to_fixed(0.5));
  EXPECT_EQ(engine.to_fixed(7.0), engine.input_limit_fixed());
  EXPECT_EQ(engine.to_fixed(-7.0), -engine.input_limit_fixed());
  EXPECT_EQ(engine.to_fixed(std::nan("")), 0);
  // Out-of-domain fixed inputs are refused, not wrapped.
  EXPECT_THROW(engine.forward_fixed({engine.input_limit_fixed() + 1, 0}),
               Error);
}

TEST(QuantizedEngine, UnpackRoundTripsExactly) {
  Rng rng(27);
  Network net = Network::make_mlp({3, 6, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 9);
  const QuantizedEngine engine(q, 1.5);
  const QuantizedNetwork back = engine.unpack();
  ASSERT_EQ(back.num_layers(), q.num_layers());
  EXPECT_EQ(back.frac_bits(), q.frac_bits());
  for (std::size_t li = 0; li < q.num_layers(); ++li) {
    EXPECT_EQ(back.layer(li).weights, q.layer(li).weights);
    EXPECT_EQ(back.layer(li).biases, q.layer(li).biases);
    EXPECT_EQ(back.layer(li).activation, q.layer(li).activation);
  }
}

TEST(QuantizedEngine, RealBatchMatchesFixedReplay) {
  Rng rng(28);
  Network net = Network::make_mlp({4, 8, 3}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  QuantizedNetwork q = QuantizedNetwork::quantize(net, 10);
  const QuantizedEngine engine(q, 2.0);
  const std::size_t batch = 9;
  Matrix scenes(batch, 4);
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    scenes.data()[i] = rng.uniform(-3.0, 3.0);  // some rows saturate
  }
  QuantizedEngine::Scratch scratch;
  Matrix raw;
  engine.forward_real_batch(scenes, scratch, raw);
  ASSERT_EQ(raw.rows(), batch);
  ASSERT_EQ(raw.cols(), 3u);
  for (std::size_t i = 0; i < batch; ++i) {
    std::vector<std::int64_t> in(4);
    for (std::size_t c = 0; c < 4; ++c) {
      in[c] = engine.to_fixed(scenes(i, c));
    }
    const std::vector<std::int64_t> fixed = q.forward_fixed(in);
    for (std::size_t j = 0; j < 3; ++j) {
      // Exact: raw is from_fixed of the bitwise-checked integer output.
      ASSERT_EQ(raw(i, j), engine.from_fixed(fixed[j])) << i << "," << j;
      ASSERT_EQ(scratch.acc[i * 3 + j], fixed[j]) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace safenn::nn
