#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/certification.hpp"
#include "core/hints.hpp"
#include "core/report.hpp"

namespace safenn::core {
namespace {

using linalg::Vector;

/// Shared small dataset + predictor so the expensive training runs once.
/// Width 4 keeps the MILP queries on the data domain exact in well under
/// a second, so the verification tests assert on exact maxima.
class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    encoder_ = new highway::SceneEncoder();
    highway::DatasetBuildConfig dcfg;
    dcfg.sample_steps = 120;
    dcfg.warmup_steps = 30;
    dcfg.seed = 21;
    built_ = new highway::BuiltDataset(
        highway::build_highway_dataset(*encoder_, dcfg));

    PredictorConfig pcfg;
    pcfg.hidden_width = 4;
    pcfg.train.epochs = 12;
    predictor_ = new TrainedPredictor(
        train_motion_predictor(built_->data, pcfg));
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete built_;
    delete encoder_;
    predictor_ = nullptr;
    built_ = nullptr;
    encoder_ = nullptr;
  }

  /// "Vehicle on the left" over the observed data domain (the operational
  /// envelope run_certification verifies).
  static verify::InputRegion data_region() {
    return highway::make_vehicle_on_left_region(
        *encoder_, highway::data_domain_box(built_->data, *encoder_));
  }

  static highway::SceneEncoder* encoder_;
  static highway::BuiltDataset* built_;
  static TrainedPredictor* predictor_;
};

highway::SceneEncoder* PipelineFixture::encoder_ = nullptr;
highway::BuiltDataset* PipelineFixture::built_ = nullptr;
TrainedPredictor* PipelineFixture::predictor_ = nullptr;

TEST_F(PipelineFixture, TrainingProducesI4xNTopology) {
  EXPECT_EQ(predictor_->network.num_layers(), 5u);
  EXPECT_EQ(predictor_->network.input_size(), 84u);
  EXPECT_EQ(predictor_->network.output_size(),
            predictor_->head.raw_output_size());
  EXPECT_TRUE(std::isfinite(predictor_->final_loss));
}

TEST_F(PipelineFixture, PredictReturnsNormalizedMixture) {
  const nn::GaussianMixture gm = predictor_->predict(built_->data.input(0));
  EXPECT_EQ(gm.dims(), highway::kActionDims);
  double sum = 0.0;
  for (double w : gm.weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (const auto& s : gm.sigmas) {
    for (std::size_t d = 0; d < s.size(); ++d) EXPECT_GT(s[d], 0.0);
  }
}

TEST_F(PipelineFixture, VerificationProducesCertifiedMaximum) {
  verify::VerifierOptions opts;
  opts.time_limit_seconds = 60.0;
  const verify::InputRegion region = data_region();
  const PredictorVerification v =
      verify_max_lateral_velocity(*predictor_, *encoder_, opts, &region);
  ASSERT_EQ(v.per_component.size(), predictor_->head.components());
  EXPECT_GT(v.seconds, 0.0);
  ASSERT_TRUE(v.exact);
  // Each component's witness reproduces its maximum through plain
  // inference, and the verified maximum dominates samples of the region.
  for (std::size_t k = 0; k < v.per_component.size(); ++k) {
    const verify::MaximizeResult& r = v.per_component[k];
    ASSERT_TRUE(r.has_value);
    EXPECT_TRUE(region.contains(r.witness));
    const std::size_t out =
        predictor_->head.mean_index(k, highway::kActionLateral);
    EXPECT_EQ(predictor_->network.forward(r.witness)[out], r.max_value);
    EXPECT_LE(r.max_value, v.max_lateral_velocity);
  }
  Rng rng(31);
  double sampled = -1e9;
  for (int trial = 0; trial < 200; ++trial) {
    Vector x(highway::kSceneFeatures);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform(region.box[i].lo, region.box[i].hi);
    }
    ASSERT_TRUE(region.contains(x));
    const linalg::Vector raw = predictor_->network.forward(x);
    for (std::size_t k = 0; k < predictor_->head.components(); ++k) {
      sampled = std::max(
          sampled,
          raw[predictor_->head.mean_index(k, highway::kActionLateral)]);
    }
  }
  EXPECT_GE(v.max_lateral_velocity, sampled - 1e-5);
}

TEST_F(PipelineFixture, ProveAgreesWithMaximization) {
  verify::VerifierOptions opts;
  opts.time_limit_seconds = 60.0;
  const verify::InputRegion region = data_region();
  const PredictorVerification v =
      verify_max_lateral_velocity(*predictor_, *encoder_, opts, &region);
  ASSERT_TRUE(v.exact);
  // Threshold above the exact max: must be proved.
  const PredictorProof proved = prove_lateral_velocity_bound(
      *predictor_, *encoder_, v.max_lateral_velocity + 0.1, opts, &region);
  EXPECT_EQ(proved.verdict, verify::Verdict::kProved);
  // Threshold below the exact max: must be violated.
  const PredictorProof violated = prove_lateral_velocity_bound(
      *predictor_, *encoder_, v.max_lateral_velocity - 0.1, opts, &region);
  EXPECT_EQ(violated.verdict, verify::Verdict::kViolated);
}

TEST(Hints, PropertyHintPenalizesViolationsOnly) {
  verify::SafetyProperty prop;
  prop.region.box = verify::Box(2, verify::Interval{0.0, 1.0});
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = 1.0;
  const nn::OutputRegularizer hint = make_property_hint(prop);

  Vector grad(2);
  // Input outside region: no penalty.
  EXPECT_DOUBLE_EQ(hint(Vector{2.0, 0.0}, Vector{5.0, 0.0}, grad), 0.0);
  // In region, output below threshold: no penalty.
  EXPECT_DOUBLE_EQ(hint(Vector{0.5, 0.5}, Vector{0.5, 0.0}, grad), 0.0);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  // In region, above threshold: quadratic penalty with gradient.
  const double pen = hint(Vector{0.5, 0.5}, Vector{3.0, 0.0}, grad);
  EXPECT_NEAR(pen, 4.0, 1e-12);  // (3-1)^2
  EXPECT_NEAR(grad[0], 4.0, 1e-12);  // 2*(3-1)*1
}

TEST(Hints, HintTrainingLowersVerifiedMaximum) {
  // Train twin predictors on the same data, one with the safety hint; the
  // hinted one must show a lower verified max lateral velocity.
  highway::SceneEncoder encoder;
  highway::DatasetBuildConfig dcfg;
  dcfg.sample_steps = 80;
  dcfg.warmup_steps = 20;
  dcfg.seed = 77;
  const highway::BuiltDataset built =
      highway::build_highway_dataset(encoder, dcfg);

  PredictorConfig base;
  base.hidden_width = 4;
  base.train.epochs = 10;
  base.weight_seed = 5;
  const TrainedPredictor plain = train_motion_predictor(built.data, base);

  PredictorConfig hinted_cfg = base;
  const nn::MdnHead head(hinted_cfg.mixture_components, highway::kActionDims);
  hinted_cfg.train.regularizer =
      make_lateral_velocity_hint(encoder, head, 0.0);
  hinted_cfg.train.regularizer_weight = 50.0;
  const TrainedPredictor hinted =
      train_motion_predictor(built.data, hinted_cfg);

  // Both maxima are exact over the observed data domain.
  verify::VerifierOptions opts;
  opts.time_limit_seconds = 45.0;
  const verify::InputRegion region = highway::make_vehicle_on_left_region(
      encoder, highway::data_domain_box(built.data, encoder));
  const PredictorVerification v_plain =
      verify_max_lateral_velocity(plain, encoder, opts, &region);
  const PredictorVerification v_hint =
      verify_max_lateral_velocity(hinted, encoder, opts, &region);
  ASSERT_TRUE(v_plain.exact);
  ASSERT_TRUE(v_hint.exact);
  EXPECT_LT(v_hint.max_lateral_velocity, v_plain.max_lateral_velocity);
}

TEST(Certification, EndToEndArtifactsAreCoherent) {
  CertificationConfig cfg;
  cfg.predictor.hidden_width = 4;
  cfg.predictor.train.epochs = 8;
  cfg.dataset.sample_steps = 80;
  cfg.dataset.warmup_steps = 20;
  cfg.dataset.risky_probability = 0.01;  // contaminated raw data
  cfg.verification_time_limit = 45.0;
  cfg.probe_count = 150;

  const CertificationArtifacts a = run_certification(cfg);

  // Pillar 1: contamination must be detected and removed.
  EXPECT_GT(a.validation.total_violations(), 0u);
  EXPECT_LT(a.samples_after_sanitize, a.samples_before_sanitize);

  // Pillar 2: traceability analyzed every hidden neuron.
  EXPECT_EQ(a.traceability.neurons.size(), 4u * 4u);

  // Pillar 3: MC/DC accounting, and a verification that closes: the exact
  // maximum over the data domain is below the bound.
  EXPECT_EQ(a.mcdc.decisions, 16u);
  EXPECT_GT(a.coverage.tests_generated, 0u);
  EXPECT_GE(a.verification.seconds, 0.0);
  EXPECT_TRUE(a.verification.exact);
  EXPECT_EQ(a.verdict, verify::Verdict::kProved);
  EXPECT_GT(a.total_seconds, 0.0);
}

TEST(Report, CertificationReportMentionsAllPillars) {
  CertificationConfig cfg;
  cfg.predictor.hidden_width = 4;
  cfg.predictor.train.epochs = 3;
  cfg.dataset.sample_steps = 40;
  cfg.dataset.warmup_steps = 10;
  cfg.verification_time_limit = 30.0;
  cfg.probe_count = 60;
  const CertificationArtifacts a = run_certification(cfg);
  const std::string text = render_certification_report(a, cfg);
  EXPECT_NE(text.find("specification validity"), std::string::npos);
  EXPECT_NE(text.find("understandability"), std::string::npos);
  EXPECT_NE(text.find("correctness"), std::string::npos);
  EXPECT_NE(text.find("MC/DC"), std::string::npos);
}

TEST(Report, TableTwoRendering) {
  PredictorVerification v;
  v.exact = true;
  v.max_lateral_velocity = 0.688497;
  v.seconds = 5.4;
  verify::MaximizeResult r;
  r.has_value = true;
  v.per_component.push_back(r);
  const TableTwoRow row = make_table_two_row("I4x10", v);
  EXPECT_EQ(row.ann_name, "I4x10");
  EXPECT_TRUE(row.has_value);
  EXPECT_FALSE(row.timed_out);

  PredictorVerification timeout;
  timeout.exact = false;
  timeout.seconds = 90.0;
  const TableTwoRow row2 = make_table_two_row("I4x60", timeout);
  EXPECT_TRUE(row2.timed_out);
  EXPECT_FALSE(row2.has_value);

  const std::string table = render_table_two({row, row2});
  EXPECT_NE(table.find("I4x10"), std::string::npos);
  EXPECT_NE(table.find("0.688497"), std::string::npos);
  EXPECT_NE(table.find("time-out"), std::string::npos);
  EXPECT_NE(table.find("n.a."), std::string::npos);

  CsvWriter csv;
  table_two_csv({row, row2}, csv);
  EXPECT_EQ(csv.row_count(), 2u);
}

}  // namespace
}  // namespace safenn::core

// ---------------------------------------------------------------------------
// Counterexample-guided repair (appended suite).
// ---------------------------------------------------------------------------
#include "core/repair.hpp"
#include "highway/dataset_builder.hpp"

namespace safenn::core {
namespace {

TEST(Repair, DrivesVerifiedMaximumDown) {
  highway::SceneEncoder encoder;
  highway::DatasetBuildConfig dcfg;
  dcfg.sample_steps = 60;
  dcfg.warmup_steps = 20;
  dcfg.seed = 99;
  const highway::BuiltDataset built =
      highway::build_highway_dataset(encoder, dcfg);
  const verify::InputRegion region = highway::make_vehicle_on_left_region(
      encoder, highway::data_domain_box(built.data, encoder));

  PredictorConfig pcfg;
  pcfg.hidden_width = 4;
  pcfg.train.epochs = 6;
  pcfg.weight_seed = 3;
  const TrainedPredictor initial =
      train_motion_predictor(built.data, pcfg);

  RepairOptions ropts;
  ropts.max_iterations = 2;
  ropts.property_threshold = 1.0;
  ropts.verifier.time_limit_seconds = 20.0;
  const RepairResult result = counterexample_guided_repair(
      initial, built.data, encoder, region, pcfg, ropts);

  ASSERT_GE(result.rounds.size(), 1u);
  // Rounds are recorded with meaningful verdicts.
  for (const RepairRound& r : result.rounds) {
    EXPECT_TRUE(r.verdict == verify::Verdict::kProved ||
                r.verdict == verify::Verdict::kViolated ||
                r.verdict == verify::Verdict::kUnknown);
  }
  // When the first round was an exact violation and repair iterated, the
  // final verified maximum must not be worse than the first.
  if (result.rounds.size() >= 2 && result.rounds.front().exact &&
      result.rounds.back().exact &&
      result.rounds.front().verdict == verify::Verdict::kViolated) {
    EXPECT_LE(result.rounds.back().max_lateral_velocity,
              result.rounds.front().max_lateral_velocity + 0.2);
  }
  // If the property was proved, the flag must say so.
  if (result.rounds.back().verdict == verify::Verdict::kProved) {
    EXPECT_TRUE(result.repaired);
  }
}

TEST(Repair, AlreadySafeModelReturnsImmediately) {
  highway::SceneEncoder encoder;
  highway::DatasetBuildConfig dcfg;
  dcfg.sample_steps = 40;
  dcfg.warmup_steps = 10;
  const highway::BuiltDataset built =
      highway::build_highway_dataset(encoder, dcfg);
  const verify::InputRegion region = highway::make_vehicle_on_left_region(
      encoder, highway::data_domain_box(built.data, encoder));
  PredictorConfig pcfg;
  pcfg.hidden_width = 4;
  pcfg.train.epochs = 5;
  const TrainedPredictor initial =
      train_motion_predictor(built.data, pcfg);
  RepairOptions ropts;
  ropts.max_iterations = 3;
  ropts.property_threshold = 1e6;  // trivially satisfied
  ropts.verifier.time_limit_seconds = 20.0;
  const RepairResult result = counterexample_guided_repair(
      initial, built.data, encoder, region, pcfg, ropts);
  EXPECT_EQ(result.rounds.size(), 1u);
  EXPECT_TRUE(result.repaired);
  EXPECT_EQ(result.rounds[0].verdict, verify::Verdict::kProved);
}

}  // namespace
}  // namespace safenn::core

// ---------------------------------------------------------------------------
// Runtime safety monitor (appended suite).
// ---------------------------------------------------------------------------
#include "core/monitor.hpp"

namespace safenn::core {
namespace {

TEST(Monitor, ClampsOnlyInsideRegionAboveThreshold) {
  highway::SceneEncoder encoder;
  const verify::InputRegion region =
      highway::make_vehicle_on_left_region(encoder);

  // Predictor stub: identity-free construction is heavy, so use a tiny
  // trained-free predictor whose head we drive by hand via a crafted
  // network: single identity layer mapping zeros to fixed raw outputs.
  TrainedPredictor p;
  p.head = nn::MdnHead(1, highway::kActionDims);
  nn::Network net;
  nn::DenseLayer layer(highway::kSceneFeatures, p.head.raw_output_size(),
                       nn::Activation::kIdentity);
  // All weights zero: raw output = biases. One component, weight 1.
  layer.biases()[p.head.mean_index(0, highway::kActionLateral)] = 2.5;
  layer.biases()[p.head.mean_index(0, highway::kActionAccel)] = -0.5;
  net.add_layer(std::move(layer));
  p.network = std::move(net);

  SafetyMonitor monitor(region, 1.0);

  // Scene inside the region: lateral 2.5 must be clamped to 1.0.
  linalg::Vector in_region(highway::kSceneFeatures);
  for (std::size_t i = 0; i < in_region.size(); ++i) {
    in_region[i] = region.box[i].lo;
  }
  in_region[encoder.presence_index(highway::NeighborSlot::kLeftFront)] = 1.0;
  in_region[encoder.gap_index(highway::NeighborSlot::kLeftFront)] = 0.1;
  const linalg::Vector guarded = monitor.guarded_action(p, in_region);
  EXPECT_NEAR(guarded[highway::kActionLateral], 1.0, 1e-9);
  EXPECT_NEAR(guarded[highway::kActionAccel], -0.5, 1e-9);

  // Scene outside the region: untouched even though lateral > threshold.
  linalg::Vector outside = in_region;
  outside[encoder.presence_index(highway::NeighborSlot::kLeftFront)] = 0.0;
  const linalg::Vector free_action = monitor.guarded_action(p, outside);
  EXPECT_NEAR(free_action[highway::kActionLateral], 2.5, 1e-9);

  EXPECT_EQ(monitor.stats().queries, 2u);
  EXPECT_EQ(monitor.stats().assumption_hits, 1u);
  EXPECT_EQ(monitor.stats().interventions, 1u);
  EXPECT_NEAR(monitor.stats().intervention_rate(), 0.5, 1e-12);
  monitor.reset_stats();
  EXPECT_EQ(monitor.stats().queries, 0u);
}

TEST(Monitor, RejectsRegionConstraintOutsideTheBox) {
  highway::SceneEncoder encoder;
  const verify::InputRegion region =
      highway::make_vehicle_on_left_region(encoder);
  for (const int idx : {-1, static_cast<int>(region.dims())}) {
    verify::InputRegion bad = region;
    bad.constraints.push_back(
        verify::InputConstraint{{{idx, 1.0}}, lp::Relation::kLe, 0.0});
    EXPECT_THROW(SafetyMonitor(bad, 1.0), Error) << idx;
  }
  EXPECT_NO_THROW(SafetyMonitor(region, 1.0));
}

TEST(Monitor, SafePredictorNeedsNoInterventions) {
  highway::SceneEncoder encoder;
  const verify::InputRegion region =
      highway::make_vehicle_on_left_region(encoder);
  TrainedPredictor p;
  p.head = nn::MdnHead(1, highway::kActionDims);
  nn::Network net;
  nn::DenseLayer layer(highway::kSceneFeatures, p.head.raw_output_size(),
                       nn::Activation::kIdentity);
  layer.biases()[p.head.mean_index(0, highway::kActionLateral)] = 0.2;
  net.add_layer(std::move(layer));
  p.network = std::move(net);

  SafetyMonitor monitor(region, 1.0);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    linalg::Vector scene(highway::kSceneFeatures);
    for (std::size_t j = 0; j < scene.size(); ++j) {
      scene[j] = rng.uniform(region.box[j].lo, region.box[j].hi);
    }
    monitor.guarded_action(p, scene);
  }
  EXPECT_EQ(monitor.stats().queries, 50u);
  EXPECT_EQ(monitor.stats().interventions, 0u);
}

}  // namespace
}  // namespace safenn::core

// ---------------------------------------------------------------------------
// Monitor thread-safety + MonitorStats edge cases (appended suite).
// ---------------------------------------------------------------------------
#include <thread>

namespace safenn::core {
namespace {

TEST(MonitorStats, InterventionRateEdgeCases) {
  MonitorStats s;
  EXPECT_DOUBLE_EQ(s.intervention_rate(), 0.0);  // no queries: no div-by-0
  s.queries = 8;
  EXPECT_DOUBLE_EQ(s.intervention_rate(), 0.0);  // queries, no clamps
  s.interventions = 2;
  EXPECT_DOUBLE_EQ(s.intervention_rate(), 0.25);
  s.interventions = s.queries;
  EXPECT_DOUBLE_EQ(s.intervention_rate(), 1.0);  // every query clamped
}

TEST(MonitorStats, ResetClearsEveryCounter) {
  highway::SceneEncoder encoder;
  const verify::InputRegion region =
      highway::make_vehicle_on_left_region(encoder);
  TrainedPredictor p;
  p.head = nn::MdnHead(1, highway::kActionDims);
  nn::Network net;
  nn::DenseLayer layer(highway::kSceneFeatures, p.head.raw_output_size(),
                       nn::Activation::kIdentity);
  layer.biases()[p.head.mean_index(0, highway::kActionLateral)] = 9.0;
  net.add_layer(std::move(layer));
  p.network = std::move(net);

  SafetyMonitor monitor(region, 1.0);
  linalg::Vector in_region(highway::kSceneFeatures);
  for (std::size_t i = 0; i < in_region.size(); ++i) {
    in_region[i] = region.box[i].lo;
  }
  in_region[encoder.presence_index(highway::NeighborSlot::kLeftFront)] = 1.0;
  in_region[encoder.gap_index(highway::NeighborSlot::kLeftFront)] = 0.1;
  monitor.guarded_action(p, in_region);
  ASSERT_EQ(monitor.stats().queries, 1u);
  ASSERT_EQ(monitor.stats().interventions, 1u);
  monitor.reset_stats();
  EXPECT_EQ(monitor.stats().queries, 0u);
  EXPECT_EQ(monitor.stats().assumption_hits, 0u);
  EXPECT_EQ(monitor.stats().interventions, 0u);
  EXPECT_DOUBLE_EQ(monitor.stats().intervention_rate(), 0.0);
}

TEST(Monitor, SafeActionRespectsThresholdSign) {
  highway::SceneEncoder encoder;
  const verify::InputRegion region =
      highway::make_vehicle_on_left_region(encoder);
  SafetyMonitor lenient(region, 1.5);
  EXPECT_DOUBLE_EQ(lenient.safe_action()[highway::kActionLateral], 0.0);
  SafetyMonitor strict(region, -0.5);  // threshold forces a right drift
  EXPECT_DOUBLE_EQ(strict.safe_action()[highway::kActionLateral], -0.5);
  EXPECT_DOUBLE_EQ(strict.safe_action()[highway::kActionAccel], 0.0);
}

TEST(Monitor, ConcurrentGuardingCountsExactly) {
  highway::SceneEncoder encoder;
  const verify::InputRegion region =
      highway::make_vehicle_on_left_region(encoder);
  TrainedPredictor p;
  p.head = nn::MdnHead(1, highway::kActionDims);
  nn::Network net;
  nn::DenseLayer layer(highway::kSceneFeatures, p.head.raw_output_size(),
                       nn::Activation::kIdentity);
  layer.biases()[p.head.mean_index(0, highway::kActionLateral)] = 2.0;
  net.add_layer(std::move(layer));
  p.network = std::move(net);
  const SafetyMonitor monitor(region, 1.0);  // const: guard is const now

  // Half the scenes hit the assumption (and clamp, lateral 2.0 > 1.0).
  linalg::Vector inside(highway::kSceneFeatures);
  for (std::size_t i = 0; i < inside.size(); ++i) {
    inside[i] = region.box[i].lo;
  }
  inside[encoder.presence_index(highway::NeighborSlot::kLeftFront)] = 1.0;
  inside[encoder.gap_index(highway::NeighborSlot::kLeftFront)] = 0.1;
  linalg::Vector outside = inside;
  outside[encoder.presence_index(highway::NeighborSlot::kLeftFront)] = 0.0;

  constexpr std::size_t kThreads = 4, kPerThread = 250;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        monitor.guarded_action(p, i % 2 == 0 ? inside : outside);
      }
    });
  }
  for (auto& th : threads) th.join();
  const MonitorStats s = monitor.stats();
  EXPECT_EQ(s.queries, kThreads * kPerThread);
  EXPECT_EQ(s.assumption_hits, kThreads * kPerThread / 2);
  EXPECT_EQ(s.interventions, kThreads * kPerThread / 2);
}

TEST_F(PipelineFixture, PredictIsThreadSafeOnSharedConstNetwork) {
  // Same trained network, concurrent readers: results must be bitwise
  // identical to a sequential evaluation (forward() is pure/const).
  const std::size_t n = std::min<std::size_t>(built_->data.size(), 64);
  std::vector<linalg::Vector> sequential;
  sequential.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sequential.push_back(predictor_->predict(built_->data.input(i)).mean());
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<linalg::Vector>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        per_thread[t].push_back(
            predictor_->predict(built_->data.input(i)).mean());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[t].size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < highway::kActionDims; ++d) {
        EXPECT_EQ(per_thread[t][i][d], sequential[i][d]);
      }
    }
  }
}

}  // namespace
}  // namespace safenn::core

// ---------------------------------------------------------------------------
// Batched prediction & guarding: the batched path must be
// decision-for-decision identical to the per-sample one (appended suite).
// ---------------------------------------------------------------------------
#include "common/error.hpp"

namespace safenn::core {
namespace {

TEST_F(PipelineFixture, PredictBatchBitwiseMatchesPredict) {
  const std::size_t n = std::min<std::size_t>(built_->data.size(), 48);
  std::vector<linalg::Vector> scenes;
  scenes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) scenes.push_back(built_->data.input(i));

  const std::vector<nn::GaussianMixture> batched =
      predictor_->predict_batch(scenes);
  ASSERT_EQ(batched.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const nn::GaussianMixture ref = predictor_->predict(scenes[i]);
    ASSERT_EQ(batched[i].components(), ref.components());
    for (std::size_t k = 0; k < ref.components(); ++k) {
      EXPECT_EQ(batched[i].weights[k], ref.weights[k]);
      for (std::size_t d = 0; d < ref.dims(); ++d) {
        EXPECT_EQ(batched[i].means[k][d], ref.means[k][d]);
        EXPECT_EQ(batched[i].sigmas[k][d], ref.sigmas[k][d]);
      }
    }
  }
}

TEST(Pipeline, PackScenesLayoutAndValidation) {
  std::vector<linalg::Vector> scenes{{1.0, 2.0}, {3.0, 4.0}};
  const linalg::Matrix packed = pack_scenes(scenes);
  ASSERT_EQ(packed.rows(), 2u);
  ASSERT_EQ(packed.cols(), 2u);
  EXPECT_DOUBLE_EQ(packed(1, 0), 3.0);
  EXPECT_THROW(pack_scenes({}), Error);
  EXPECT_THROW(pack_scenes({linalg::Vector{1.0}, linalg::Vector{1.0, 2.0}}),
               Error);
}

TEST_F(PipelineFixture, GuardBatchMatchesSequentialGuardExactly) {
  highway::SceneEncoder encoder;
  const verify::InputRegion region = highway::make_vehicle_on_left_region(
      encoder, highway::data_domain_box(built_->data, encoder));
  // Threshold low enough that some replayed scenes actually clamp.
  const double threshold = -0.05;

  const std::size_t n = std::min<std::size_t>(built_->data.size(), 64);
  std::vector<linalg::Vector> scenes;
  scenes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) scenes.push_back(built_->data.input(i));

  SafetyMonitor sequential(region, threshold);
  std::vector<GuardDecision> expected;
  expected.reserve(n);
  for (const linalg::Vector& scene : scenes) {
    expected.push_back(sequential.guard(*predictor_, scene));
  }

  SafetyMonitor batched_monitor(region, threshold);
  const std::vector<GuardDecision> batched =
      batched_monitor.guard_batch(*predictor_, scenes);

  ASSERT_EQ(batched.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batched[i].assumption_hit, expected[i].assumption_hit) << i;
    EXPECT_EQ(batched[i].intervened, expected[i].intervened) << i;
    ASSERT_EQ(batched[i].action.size(), expected[i].action.size());
    for (std::size_t d = 0; d < expected[i].action.size(); ++d) {
      EXPECT_EQ(batched[i].action[d], expected[i].action[d]) << i;
    }
  }
  EXPECT_EQ(batched_monitor.stats().queries, sequential.stats().queries);
  EXPECT_EQ(batched_monitor.stats().assumption_hits,
            sequential.stats().assumption_hits);
  EXPECT_EQ(batched_monitor.stats().interventions,
            sequential.stats().interventions);
  // The replay must actually exercise the clamp for the check to mean
  // anything.
  EXPECT_GT(sequential.stats().interventions, 0u);
}

TEST(Monitor, GuardBatchOnEmptyBatchIsANoOp) {
  highway::SceneEncoder encoder;
  const verify::InputRegion region =
      highway::make_vehicle_on_left_region(encoder);
  TrainedPredictor p;
  p.head = nn::MdnHead(1, highway::kActionDims);
  nn::Network net;
  nn::DenseLayer layer(highway::kSceneFeatures, p.head.raw_output_size(),
                       nn::Activation::kIdentity);
  net.add_layer(std::move(layer));
  p.network = std::move(net);
  SafetyMonitor monitor(region, 1.0);
  EXPECT_TRUE(monitor.guard_batch(p, {}).empty());
  EXPECT_EQ(monitor.stats().queries, 0u);
}

}  // namespace
}  // namespace safenn::core
