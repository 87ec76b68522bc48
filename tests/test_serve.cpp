#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "highway/safety_rules.hpp"
#include "linalg/verify_kernels.hpp"
#include "registry/artifact.hpp"
#include "serve/metrics.hpp"
#include "serve/multi_model.hpp"
#include "serve/worker_pool.hpp"

namespace safenn::serve {
namespace {

using linalg::Vector;

// -------------------------------------------------------------------------
// Fixtures: a hand-crafted predictor (identity layer, no training) whose
// lateral-velocity output depends on the scene, so shield decisions are
// scene-dependent yet fully deterministic — cheap enough for TSan runs.
// -------------------------------------------------------------------------

core::TrainedPredictor make_craft_predictor(std::uint64_t seed = 11) {
  core::TrainedPredictor p;
  p.head = nn::MdnHead(1, highway::kActionDims);
  nn::DenseLayer layer(highway::kSceneFeatures, p.head.raw_output_size(),
                       nn::Activation::kIdentity);
  Rng rng(seed);
  const std::size_t lat = p.head.mean_index(0, highway::kActionLateral);
  layer.biases()[lat] = 1.0;
  layer.biases()[p.head.mean_index(0, highway::kActionAccel)] = -0.25;
  for (std::size_t i = 0; i < 16; ++i) {
    layer.weights().at(lat, i) = rng.uniform(-0.6, 0.6);
  }
  nn::Network net;
  net.add_layer(std::move(layer));
  p.network = std::move(net);
  return p;
}

/// Scenes sampled over the region box; every odd scene is pushed inside
/// the monitored region (left-front occupied), every even one outside.
std::vector<Vector> make_scene_set(const highway::SceneEncoder& encoder,
                                   const verify::InputRegion& region,
                                   std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> scenes;
  scenes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Vector x(highway::kSceneFeatures);
    for (std::size_t j = 0; j < x.size(); ++j) {
      x[j] = rng.uniform(region.box[j].lo, region.box[j].hi);
    }
    const std::size_t presence =
        encoder.presence_index(highway::NeighborSlot::kLeftFront);
    const std::size_t gap =
        encoder.gap_index(highway::NeighborSlot::kLeftFront);
    if (i % 2 == 1) {
      x[presence] = 1.0;
      x[gap] = 0.1;
    } else {
      x[presence] = 0.0;
    }
    scenes.push_back(std::move(x));
  }
  return scenes;
}

ServeRequest make_request(std::uint64_t id, Vector scene,
                          Clock::time_point deadline =
                              Clock::time_point::max()) {
  ServeRequest r;
  r.id = id;
  r.scene = std::move(scene);
  r.enqueue_time = Clock::now();
  r.deadline = deadline;
  return r;
}

// -------------------------------------------------------------------------
// RequestQueue semantics.
// -------------------------------------------------------------------------

TEST(RequestQueue, BoundedFifoAndTryPushSheds) {
  RequestQueue q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.try_push(make_request(i, Vector(1))));
  }
  EXPECT_FALSE(q.try_push(make_request(99, Vector(1))));  // full
  EXPECT_EQ(q.size(), 4u);

  std::vector<ServeRequest> out;
  EXPECT_EQ(q.pop_batch(out, 2), 2u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_TRUE(q.try_push(make_request(4, Vector(1))));  // space again
  out.clear();
  EXPECT_EQ(q.pop_batch(out, 10), 3u);  // drains what's there, no more
  EXPECT_EQ(out.back().id, 4u);
}

TEST(RequestQueue, CloseDrainsBacklogThenReturnsZero) {
  RequestQueue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_push(make_request(i, Vector(1))));
  }
  q.close();
  EXPECT_FALSE(q.try_push(make_request(9, Vector(1))));
  EXPECT_FALSE(q.push(make_request(9, Vector(1))));
  std::vector<ServeRequest> out;
  EXPECT_EQ(q.pop_batch(out, 3), 3u);
  EXPECT_EQ(q.pop_batch(out, 3), 2u);
  EXPECT_EQ(q.pop_batch(out, 3), 0u);  // closed and empty: no block
  EXPECT_EQ(out.size(), 5u);
}

TEST(RequestQueue, BatchFormationRespectsMaxBatch) {
  RequestQueue q(64);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.try_push(make_request(i, Vector(1))));
  }
  std::vector<ServeRequest> out;
  EXPECT_EQ(q.pop_batch(out, 4), 4u);
  EXPECT_EQ(q.pop_batch(out, 4), 4u);
  EXPECT_EQ(q.pop_batch(out, 4), 2u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].id, i);
}

TEST(RequestQueue, TryPushAtExactCapacityBoundary) {
  RequestQueue q(3);
  ASSERT_TRUE(q.try_push(make_request(0, Vector(1))));
  ASSERT_TRUE(q.try_push(make_request(1, Vector(1))));
  EXPECT_EQ(q.size(), 2u);
  // The push that lands exactly on capacity succeeds; the next one sheds.
  EXPECT_TRUE(q.try_push(make_request(2, Vector(1))));
  EXPECT_EQ(q.size(), q.capacity());
  EXPECT_FALSE(q.try_push(make_request(3, Vector(1))));
  EXPECT_EQ(q.size(), 3u);  // the failed push must not consume a slot
  // Freeing exactly one slot re-admits exactly one request.
  std::vector<ServeRequest> out;
  EXPECT_EQ(q.pop_batch(out, 1), 1u);
  EXPECT_TRUE(q.try_push(make_request(4, Vector(1))));
  EXPECT_FALSE(q.try_push(make_request(5, Vector(1))));
}

TEST(RequestQueue, DrainAfterCloseKeepsFifoOrder) {
  RequestQueue q(32);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(q.try_push(make_request(i, Vector(1))));
  }
  q.close();
  // Batch boundaries must not perturb FIFO order while draining a closed
  // queue, and the terminal 0 must be sticky.
  std::vector<ServeRequest> out;
  while (q.pop_batch(out, 7) > 0) {
  }
  ASSERT_EQ(out.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(out[i].id, i);
  out.clear();
  EXPECT_EQ(q.pop_batch(out, 7), 0u);
  EXPECT_FALSE(q.try_push(make_request(99, Vector(1))));
  EXPECT_FALSE(q.push(make_request(99, Vector(1))));
}

TEST(RequestQueue, CloseRacingPushAndPopBatchLosesNoAcceptedRequest) {
  // close() lands at a different point in the producer/consumer schedule
  // each round; whatever was accepted before the close must be popped
  // exactly once, and pushes after the close must be refused.
  for (int round = 0; round < 25; ++round) {
    RequestQueue q(16);
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::uint64_t i = 0; i < 200; ++i) {
          if (!q.push(make_request(i, Vector(1)))) return;  // closed
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::atomic<std::uint64_t> popped{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c) {
      consumers.emplace_back([&] {
        std::vector<ServeRequest> batch;
        for (;;) {
          batch.clear();
          const std::size_t n = q.pop_batch(batch, 5);
          if (n == 0) return;
          popped.fetch_add(n, std::memory_order_relaxed);
        }
      });
    }
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::microseconds(20 * round));
    q.close();
    for (auto& t : producers) t.join();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(popped.load(), accepted.load()) << "round " << round;
    EXPECT_FALSE(q.try_push(make_request(9999, Vector(1))));
  }
}

TEST(RequestQueue, ContendedMpmcDeliversEveryRequestOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr std::size_t kPerProducer = 500;
  RequestQueue q(32);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(
            q.push(make_request(p * kPerProducer + i, Vector(1))));
      }
    });
  }

  std::mutex seen_mu;
  std::set<std::uint64_t> seen;
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<ServeRequest> batch;
      for (;;) {
        batch.clear();
        if (q.pop_batch(batch, 7) == 0) return;
        std::lock_guard<std::mutex> lock(seen_mu);
        for (const ServeRequest& r : batch) {
          EXPECT_TRUE(seen.insert(r.id).second) << "duplicate id " << r.id;
        }
      }
    });
  }

  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), kProducers * kPerProducer);
}

// -------------------------------------------------------------------------
// ShieldedEngine outcomes and degradation.
// -------------------------------------------------------------------------

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture()
      : region_(highway::make_vehicle_on_left_region(encoder_)),
        predictor_(make_craft_predictor()),
        monitor_(region_, 1.0) {}

  highway::SceneEncoder encoder_;
  verify::InputRegion region_;
  core::TrainedPredictor predictor_;
  core::SafetyMonitor monitor_;
};

TEST_F(EngineFixture, ServesClampsAndDegrades) {
  ShieldedEngine engine(predictor_, monitor_);
  const auto scenes = make_scene_set(encoder_, region_, 2, 3);

  // Outside the region: served untouched regardless of lateral value.
  ServeRequest outside = make_request(0, scenes[0]);
  ServeResponse r0 = engine.serve(outside, Clock::now());
  EXPECT_EQ(r0.outcome, ServeOutcome::kServed);
  EXPECT_FALSE(r0.assumption_hit);
  EXPECT_FALSE(r0.intervened);

  // Inside the region with lateral forced high: clamped to threshold.
  Vector hot = scenes[1];
  // Zero the weighted dims so lateral == bias (1.0); raise the bias via a
  // dedicated predictor instead: simpler — craft a predictor variant.
  core::TrainedPredictor loud = make_craft_predictor();
  loud.network.layer(0).biases()[loud.head.mean_index(
      0, highway::kActionLateral)] = 5.0;
  core::SafetyMonitor hot_monitor(region_, 1.0);
  ShieldedEngine hot_engine(loud, hot_monitor);
  ServeRequest inside = make_request(1, hot);
  ServeResponse r1 = hot_engine.serve(inside, Clock::now());
  EXPECT_EQ(r1.outcome, ServeOutcome::kClamped);
  EXPECT_TRUE(r1.assumption_hit);
  EXPECT_TRUE(r1.intervened);
  EXPECT_NEAR(r1.action[highway::kActionLateral], 1.0, 1e-9);

  // Expired deadline: degraded to the safe action, no inference.
  ServeRequest late = make_request(2, scenes[1],
                                   Clock::now() - std::chrono::seconds(1));
  const core::MonitorStats before = hot_monitor.stats();
  ServeResponse r2 = hot_engine.serve(late, Clock::now());
  EXPECT_EQ(r2.outcome, ServeOutcome::kDegraded);
  EXPECT_EQ(r2.infer_seconds, 0.0);
  EXPECT_EQ(hot_monitor.stats().queries, before.queries);  // untouched
  const Vector safe = hot_monitor.safe_action();
  EXPECT_EQ(r2.action[highway::kActionLateral],
            safe[highway::kActionLateral]);
}

TEST_F(EngineFixture, ServeBatchMatchesPerRequestServe) {
  // 33 requests (not a multiple of anything convenient), a few with
  // already-expired deadlines sprinkled in: serve_batch must reproduce
  // per-request serve() decision for decision, on its own monitor.
  const auto scenes = make_scene_set(encoder_, region_, 33, 7);
  const Clock::time_point now = Clock::now();
  std::vector<ServeRequest> requests;
  requests.reserve(scenes.size());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    requests.push_back(make_request(
        i, scenes[i],
        i % 5 == 0 ? now - std::chrono::milliseconds(1)
                   : Clock::time_point::max()));
  }

  core::SafetyMonitor seq_monitor(region_, 0.5);
  ShieldedEngine seq_engine(predictor_, seq_monitor);
  std::vector<ServeResponse> expected;
  expected.reserve(requests.size());
  for (const ServeRequest& request : requests) {
    expected.push_back(seq_engine.serve(request, now));
  }

  core::SafetyMonitor batch_monitor(region_, 0.5);
  ShieldedEngine batch_engine(predictor_, batch_monitor);
  const std::vector<ServeResponse> batched =
      batch_engine.serve_batch(requests, now);

  ASSERT_EQ(batched.size(), requests.size());
  bool any_clamped = false, any_degraded = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i].id, expected[i].id);
    EXPECT_EQ(batched[i].outcome, expected[i].outcome) << i;
    EXPECT_EQ(batched[i].assumption_hit, expected[i].assumption_hit) << i;
    EXPECT_EQ(batched[i].intervened, expected[i].intervened) << i;
    ASSERT_EQ(batched[i].action.size(), expected[i].action.size());
    for (std::size_t d = 0; d < expected[i].action.size(); ++d) {
      EXPECT_EQ(batched[i].action[d], expected[i].action[d]) << i;
    }
    any_clamped = any_clamped || expected[i].outcome == ServeOutcome::kClamped;
    any_degraded =
        any_degraded || expected[i].outcome == ServeOutcome::kDegraded;
  }
  // The batch must actually exercise all three outcomes for this check
  // to mean anything.
  EXPECT_TRUE(any_clamped);
  EXPECT_TRUE(any_degraded);
  EXPECT_EQ(batch_monitor.stats().queries, seq_monitor.stats().queries);
  EXPECT_EQ(batch_monitor.stats().assumption_hits,
            seq_monitor.stats().assumption_hits);
  EXPECT_EQ(batch_monitor.stats().interventions,
            seq_monitor.stats().interventions);
}

TEST_F(EngineFixture, ServeBatchAllExpiredNeverTouchesPredictor) {
  ShieldedEngine engine(predictor_, monitor_);
  const auto scenes = make_scene_set(encoder_, region_, 4, 9);
  const Clock::time_point now = Clock::now();
  std::vector<ServeRequest> requests;
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    requests.push_back(
        make_request(i, scenes[i], now - std::chrono::seconds(1)));
  }
  const std::vector<ServeResponse> responses =
      engine.serve_batch(requests, now);
  ASSERT_EQ(responses.size(), requests.size());
  for (const ServeResponse& r : responses) {
    EXPECT_EQ(r.outcome, ServeOutcome::kDegraded);
    EXPECT_EQ(r.infer_seconds, 0.0);
  }
  EXPECT_EQ(monitor_.stats().queries, 0u);  // predictor/monitor untouched

  EXPECT_TRUE(engine.serve_batch({}, now).empty());
}

// -------------------------------------------------------------------------
// InferenceServer end to end.
// -------------------------------------------------------------------------

TEST_F(EngineFixture, ServerRejectsWhenQueueFullAndNoWorkersDrain) {
  // One slot, one worker, but the worker is starved by submitting faster
  // than it can possibly drain is racy — instead verify rejection by
  // stopping the server first: every submit must reject immediately.
  InferenceServer::Config cfg;
  cfg.queue_capacity = 1;
  cfg.pool.workers = 1;
  InferenceServer server(predictor_, monitor_, cfg);
  server.stop();
  auto f = server.submit(Vector(highway::kSceneFeatures));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(f.get().outcome, ServeOutcome::kRejected);
  EXPECT_EQ(server.metrics().rejected.load(), 1u);
}

TEST_F(EngineFixture, ServerStopFulfilsEveryPendingRequest) {
  InferenceServer::Config cfg;
  cfg.queue_capacity = 4096;
  cfg.pool.workers = 3;
  cfg.pool.max_batch = 8;
  InferenceServer server(predictor_, monitor_, cfg);
  const auto scenes = make_scene_set(encoder_, region_, 400, 17);
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(scenes.size());
  for (const Vector& s : scenes) futures.push_back(server.submit(s));
  server.stop();
  std::size_t resolved = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const ServeResponse r = f.get();
    EXPECT_NE(r.outcome, ServeOutcome::kRejected);
    ++resolved;
  }
  EXPECT_EQ(resolved, scenes.size());
  EXPECT_EQ(server.metrics().completed(), scenes.size());
}

TEST_F(EngineFixture, ExpiredDeadlinesDegradeUnderLoad) {
  InferenceServer::Config cfg;
  cfg.queue_capacity = 512;
  cfg.pool.workers = 2;
  cfg.deadline_seconds = 1e-9;  // effectively already expired
  InferenceServer server(predictor_, monitor_, cfg);
  const auto scenes = make_scene_set(encoder_, region_, 64, 29);
  std::vector<std::future<ServeResponse>> futures;
  for (const Vector& s : scenes) futures.push_back(server.submit_blocking(s));
  const Vector safe = monitor_.safe_action();
  std::size_t degraded = 0;
  for (auto& f : futures) {
    const ServeResponse r = f.get();
    if (r.outcome == ServeOutcome::kDegraded) {
      ++degraded;
      EXPECT_EQ(r.action[highway::kActionLateral],
                safe[highway::kActionLateral]);
    }
  }
  // With a 1ns deadline essentially everything must degrade.
  EXPECT_GT(degraded, scenes.size() / 2);
  EXPECT_EQ(server.metrics().degraded.load(), degraded);
}

// -------------------------------------------------------------------------
// Determinism of the shield: concurrent intervention accounting must
// match a sequential replay of the same scene set exactly.
// -------------------------------------------------------------------------

TEST_F(EngineFixture, ConcurrentInterventionsMatchSequentialReplay) {
  const auto scenes = make_scene_set(encoder_, region_, 1200, 41);

  // Sequential ground truth.
  core::SafetyMonitor sequential(region_, 1.0);
  std::size_t seq_interventions = 0;
  for (const Vector& s : scenes) {
    if (sequential.guard(predictor_, s).intervened) ++seq_interventions;
  }
  ASSERT_GT(sequential.stats().assumption_hits, 0u);
  EXPECT_EQ(sequential.stats().interventions, seq_interventions);

  // Concurrent replay through the full runtime, twice to shake schedules.
  for (int round = 0; round < 2; ++round) {
    core::SafetyMonitor concurrent(region_, 1.0);
    InferenceServer::Config cfg;
    cfg.queue_capacity = 256;
    cfg.pool.workers = 4;
    cfg.pool.max_batch = 16;
    InferenceServer server(predictor_, concurrent, cfg);
    std::vector<std::future<ServeResponse>> futures;
    futures.reserve(scenes.size());
    for (const Vector& s : scenes) {
      futures.push_back(server.submit_blocking(s));
    }
    for (auto& f : futures) f.wait();
    server.stop();

    EXPECT_EQ(server.metrics().interventions.load(), seq_interventions);
    EXPECT_EQ(server.metrics().assumption_hits.load(),
              sequential.stats().assumption_hits);
    EXPECT_EQ(concurrent.stats().interventions, seq_interventions);
    EXPECT_EQ(server.metrics().completed(), scenes.size());
  }
}

// -------------------------------------------------------------------------
// Hot reload: atomic model swap under live traffic.
// -------------------------------------------------------------------------

/// Crafts a registered-artifact analogue of make_craft_predictor with a
/// chosen lateral bias (which controls how often the shield intervenes),
/// content-hashed as the registry would.
registry::ModelArtifact make_serve_artifact(const std::string& version,
                                            double lateral_bias,
                                            const verify::InputRegion& region,
                                            double threshold = 1.0) {
  core::TrainedPredictor p = make_craft_predictor();
  p.network.layer(0).biases()[p.head.mean_index(
      0, highway::kActionLateral)] = lateral_bias;
  registry::MonitorConfig config;
  config.region = region;
  config.lateral_threshold = threshold;
  registry::ModelArtifact artifact =
      registry::make_artifact(version, p, config);
  std::stringstream ss;
  artifact.content_hash = registry::save_artifact(ss, artifact);
  return artifact;
}

TEST_F(EngineFixture, HotReloadUnderLiveTrafficKeepsShieldContinuity) {
  const auto scenes = make_scene_set(encoder_, region_, 900, 51);
  // Three models with different intervention profiles: v2's loud lateral
  // bias clamps on every in-region scene, v1/v3 only sometimes.
  const registry::ModelArtifact v1 = make_serve_artifact("v1", 0.6, region_);
  const registry::ModelArtifact v2 = make_serve_artifact("v2", 5.0, region_);
  const registry::ModelArtifact v3 = make_serve_artifact("v3", 1.2, region_);

  InferenceServer::Config cfg;
  cfg.queue_capacity = 64;
  cfg.pool.workers = 2;
  cfg.pool.max_batch = 8;
  InferenceServer server(v1, cfg);
  EXPECT_EQ(server.model_version(), "v1");

  // The producer submits in three thirds and starts the next third only
  // once the previous reload has returned, so every version is live for
  // a third of the traffic however fast the workers drain the queue.
  std::vector<std::future<ServeResponse>> futures(scenes.size());
  std::promise<void> v2_live, v3_live;
  std::thread producer([&] {
    const std::size_t third = scenes.size() / 3;
    std::future<void> gates[] = {v2_live.get_future(), v3_live.get_future()};
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      if (i == third) gates[0].wait();
      if (i == 2 * third) gates[1].wait();
      futures[i] = server.submit_blocking(scenes[i]);
    }
  });

  // Swap twice while the producer is mid-stream: each swap waits until
  // most of the current third completed, so the retiring version
  // demonstrably served traffic while the rest is still in flight.
  const auto wait_completed = [&server](std::uint64_t target) {
    while (server.metrics().completed() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_completed(250);
  server.reload(v2);
  EXPECT_EQ(server.model_version(), "v2");
  v2_live.set_value();
  wait_completed(550);
  server.reload(v3);
  v3_live.set_value();
  producer.join();
  server.stop();

  EXPECT_EQ(server.metrics().reloads.load(), 2u);
  EXPECT_EQ(server.live_model().swap_count(), 2u);
  EXPECT_EQ(server.model_version(), "v3");

  // Every request was answered (no drops across swaps), every response
  // carries the version that actually served it, and all three versions
  // took traffic.
  std::map<std::string, std::vector<std::size_t>> by_version;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse r = futures[i].get();
    ASSERT_NE(r.outcome, ServeOutcome::kRejected) << i;
    ASSERT_FALSE(r.model_version.empty()) << i;
    by_version[r.model_version].push_back(i);
  }
  ASSERT_EQ(by_version.size(), 3u);
  for (const char* v : {"v1", "v2", "v3"}) {
    EXPECT_GT(by_version[v].size(), 0u) << v;
  }
  EXPECT_EQ(server.metrics().completed(), scenes.size());

  // Shield continuity: each version's intervention slice must equal a
  // sequential replay of exactly the scenes that version served, and the
  // global counters must be the sum of the slices.
  std::uint64_t sum_interventions = 0, sum_hits = 0, sum_completed = 0;
  for (const auto& [version, indices] : by_version) {
    const registry::ModelArtifact& artifact =
        version == "v1" ? v1 : (version == "v2" ? v2 : v3);
    core::SafetyMonitor replay(artifact.monitor.region,
                               artifact.monitor.lateral_threshold);
    const core::TrainedPredictor predictor = artifact.predictor();
    for (const std::size_t i : indices) replay.guard(predictor, scenes[i]);
    const core::MonitorStats stats = replay.stats();
    VersionCounters& slice = server.metrics().version_counters(version);
    EXPECT_EQ(slice.interventions.load(), stats.interventions) << version;
    EXPECT_EQ(slice.assumption_hits.load(), stats.assumption_hits) << version;
    EXPECT_EQ(slice.completed(), indices.size()) << version;
    sum_interventions += slice.interventions.load();
    sum_hits += slice.assumption_hits.load();
    sum_completed += slice.completed();
  }
  EXPECT_EQ(server.metrics().interventions.load(), sum_interventions);
  EXPECT_EQ(server.metrics().assumption_hits.load(), sum_hits);
  EXPECT_EQ(server.metrics().completed(), sum_completed);
  EXPECT_GT(sum_interventions, 0u);

  // The metrics dump carries the per-version slices and lifecycle counts.
  const std::string json = server.metrics().to_json(1.0);
  for (const char* key : {"\"versions\"", "\"v1\"", "\"v2\"", "\"v3\"",
                          "\"lifecycle\"", "\"reloads\": 2"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST_F(EngineFixture, ReloadRerunsBackendAdmissionPerArtifact) {
  const registry::ModelArtifact v1 = make_serve_artifact("v1", 0.6, region_);
  const registry::ModelArtifact v2 = make_serve_artifact("v2", 1.2, region_);
  InferenceServer::Config cfg;
  cfg.pool.workers = 1;
  cfg.backend = linalg::KernelBackend::kSimd;
  InferenceServer server(v1, cfg);
  // Whatever the gate decided at construction it must re-decide at
  // reload: the returned backend matches the resolver's verdict for the
  // new artifact's network, and the live snapshot reports it.
  const linalg::KernelBackend resolved = resolve_serving_backend(
      v2.network, linalg::KernelBackend::kSimd, cfg.pool.max_batch);
  EXPECT_EQ(server.reload(v2), resolved);
  EXPECT_EQ(server.backend(), resolved);
  EXPECT_EQ(server.model_version(), "v2");
  server.stop();
}

// -------------------------------------------------------------------------
// Admission control.
// -------------------------------------------------------------------------

TEST_F(EngineFixture, DegradeAtWatermarkShedsWithSafeActionUnderOverload) {
  InferenceServer::Config cfg;
  cfg.queue_capacity = 8;
  cfg.pool.workers = 1;
  cfg.pool.max_batch = 4;
  cfg.admission = AdmissionPolicy::kDegradeAtWatermark;
  cfg.queue_watermark = 0.25;  // shed at depth 2 of 8
  cfg.model_version = "wm";
  InferenceServer server(predictor_, monitor_, cfg);
  const auto scenes = make_scene_set(encoder_, region_, 64, 33);
  const Vector safe = monitor_.safe_action();

  // A tight single-threaded producer outruns one worker near-immediately;
  // keep bursting until shedding is observed (bounded, deterministic in
  // practice on any scheduler).
  std::vector<std::future<ServeResponse>> futures;
  for (int burst = 0; burst < 200 && server.metrics().shed.load() == 0;
       ++burst) {
    for (const Vector& s : scenes) futures.push_back(server.submit(s));
  }
  server.stop();

  std::size_t degraded = 0;
  for (auto& f : futures) {
    const ServeResponse r = f.get();
    // Under this policy nothing is rejected: the main thread is the only
    // producer, so once the depth check passes the push cannot race full.
    ASSERT_NE(r.outcome, ServeOutcome::kRejected);
    EXPECT_EQ(r.model_version, "wm");
    if (r.outcome == ServeOutcome::kDegraded) {
      ++degraded;
      EXPECT_EQ(r.action[highway::kActionLateral],
                safe[highway::kActionLateral]);
      EXPECT_EQ(r.infer_seconds, 0.0);  // shed answers skip inference
    }
  }
  EXPECT_GT(server.metrics().shed.load(), 0u);
  EXPECT_EQ(server.metrics().shed.load(), degraded);  // no deadline set
  EXPECT_EQ(server.metrics().degraded.load(), degraded);
  EXPECT_EQ(server.metrics().completed(), futures.size());
  EXPECT_EQ(server.metrics().version_counters("wm").completed(),
            futures.size());
  EXPECT_GE(server.metrics().queue_depth_peak.load(), 1u);
}

TEST_F(EngineFixture, RejectWhenFullStaysTheDefaultPolicy) {
  InferenceServer::Config cfg;
  EXPECT_EQ(cfg.admission, AdmissionPolicy::kRejectWhenFull);
  EXPECT_STREQ(to_string(AdmissionPolicy::kRejectWhenFull),
               "reject-when-full");
  EXPECT_STREQ(to_string(AdmissionPolicy::kDegradeAtWatermark),
               "degrade-at-watermark");
}

// -------------------------------------------------------------------------
// Multi-model serving.
// -------------------------------------------------------------------------

TEST_F(EngineFixture, MultiModelRoutesTagsAndMatchesPerModelReplay) {
  const auto scenes = make_scene_set(encoder_, region_, 600, 61);
  // Distinct intervention profiles, so a routing mistake is visible in
  // the counters, not just the tags.
  const registry::ModelArtifact a =
      make_serve_artifact("alpha-v1", 0.6, region_);
  const registry::ModelArtifact b =
      make_serve_artifact("beta-v1", 5.0, region_);
  MultiModelConfig cfg;
  cfg.queue_capacity = 32;
  cfg.pool.workers = 3;  // more workers than a busy queue -> stealing
  cfg.pool.max_batch = 8;
  MultiModelServer server({{"alpha", a}, {"beta", b}}, cfg);
  EXPECT_EQ(server.num_models(), 2u);
  EXPECT_EQ(server.version("alpha"), "alpha-v1");
  EXPECT_EQ(server.version("beta"), "beta-v1");

  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(scenes.size());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    futures.push_back(
        server.submit_blocking(i % 2 == 0 ? "alpha" : "beta", scenes[i]));
  }
  std::map<std::string, std::vector<std::size_t>> by_model;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse r = futures[i].get();
    ASSERT_NE(r.outcome, ServeOutcome::kRejected) << i;
    EXPECT_EQ(r.model_id, i % 2 == 0 ? "alpha" : "beta") << i;
    EXPECT_EQ(r.model_version, i % 2 == 0 ? "alpha-v1" : "beta-v1") << i;
    by_model[r.model_id].push_back(i);
  }
  server.stop();
  EXPECT_EQ(server.metrics().completed(), scenes.size());
  EXPECT_EQ(server.metrics().mixed_batches.load(), 0u);

  // Per-model slices must equal a sequential replay of exactly the
  // scenes routed to that model (bitwise shield determinism per model).
  std::uint64_t sum_interventions = 0;
  for (const auto& [model_id, indices] : by_model) {
    const registry::ModelArtifact& artifact = model_id == "alpha" ? a : b;
    core::SafetyMonitor replay(artifact.monitor.region,
                               artifact.monitor.lateral_threshold);
    const core::TrainedPredictor predictor = artifact.predictor();
    for (const std::size_t i : indices) replay.guard(predictor, scenes[i]);
    const ModelMetrics& slice = server.metrics().model_metrics(model_id);
    EXPECT_EQ(slice.counters.interventions.load(),
              replay.stats().interventions)
        << model_id;
    EXPECT_EQ(slice.counters.assumption_hits.load(),
              replay.stats().assumption_hits)
        << model_id;
    EXPECT_EQ(slice.counters.completed(), indices.size()) << model_id;
    EXPECT_GT(slice.batches.load(), 0u) << model_id;
    sum_interventions += slice.counters.interventions.load();
  }
  EXPECT_EQ(server.metrics().interventions.load(), sum_interventions);
  EXPECT_GT(sum_interventions, 0u);

  // The dump carries the per-model section.
  const std::string json = server.metrics().to_json(1.0);
  for (const char* key :
       {"\"models\"", "\"alpha\"", "\"beta\"", "\"mixed_batches\": 0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST_F(EngineFixture, MultiModelUnknownIdRejectsImmediately) {
  const registry::ModelArtifact a =
      make_serve_artifact("alpha-v1", 0.6, region_);
  MultiModelConfig cfg;
  cfg.pool.workers = 1;
  MultiModelServer server({{"alpha", a}}, cfg);
  auto f = server.submit("nope", Vector(highway::kSceneFeatures));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(f.get().outcome, ServeOutcome::kRejected);
  auto g = server.submit_blocking("nope", Vector(highway::kSceneFeatures));
  EXPECT_EQ(g.get().outcome, ServeOutcome::kRejected);
  EXPECT_EQ(server.metrics().rejected.load(), 2u);
  EXPECT_THROW(server.reload("nope", a), Error);
  server.stop();
}

TEST_F(EngineFixture, MultiModelReloadSwapsOnlyThatSlot) {
  const registry::ModelArtifact a =
      make_serve_artifact("alpha-v1", 0.6, region_);
  const registry::ModelArtifact b1 =
      make_serve_artifact("beta-v1", 0.6, region_);
  const registry::ModelArtifact b2 =
      make_serve_artifact("beta-v2", 5.0, region_);
  MultiModelConfig cfg;
  cfg.pool.workers = 2;
  MultiModelServer server({{"alpha", a}, {"beta", b1}}, cfg);
  server.reload("beta", b2);
  EXPECT_EQ(server.version("beta"), "beta-v2");
  EXPECT_EQ(server.version("alpha"), "alpha-v1");  // untouched
  EXPECT_EQ(server.metrics().reloads.load(), 1u);

  const auto scenes = make_scene_set(encoder_, region_, 16, 71);
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    futures.push_back(
        server.submit_blocking(i % 2 == 0 ? "alpha" : "beta", scenes[i]));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse r = futures[i].get();
    EXPECT_EQ(r.model_version, i % 2 == 0 ? "alpha-v1" : "beta-v2") << i;
  }
  server.stop();
}

TEST_F(EngineFixture, MultiModelShedIsFleetLevelAtWatermark) {
  const registry::ModelArtifact a =
      make_serve_artifact("alpha-v1", 0.6, region_);
  const registry::ModelArtifact b =
      make_serve_artifact("beta-v1", 0.6, region_);
  MultiModelConfig cfg;
  cfg.queue_capacity = 64;
  cfg.admission_budget = 8;
  cfg.pool.workers = 1;
  cfg.pool.max_batch = 4;
  cfg.admission = AdmissionPolicy::kDegradeAtWatermark;
  cfg.queue_watermark = 0.25;  // shed at FLEET depth 2 of budget 8
  MultiModelServer server({{"alpha", a}, {"beta", b}}, cfg);
  const auto scenes = make_scene_set(encoder_, region_, 64, 33);

  // Burst both models from one producer until the fleet watermark trips;
  // the shed decision reads the GLOBAL depth, so backlog on one model
  // sheds traffic for the other too.
  std::vector<std::future<ServeResponse>> futures;
  for (int burst = 0; burst < 200 && server.metrics().shed.load() == 0;
       ++burst) {
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      futures.push_back(
          server.submit(i % 2 == 0 ? "alpha" : "beta", scenes[i]));
    }
  }
  server.stop();

  std::size_t degraded = 0;
  for (auto& f : futures) {
    const ServeResponse r = f.get();
    ASSERT_NE(r.outcome, ServeOutcome::kRejected);
    EXPECT_FALSE(r.model_id.empty());
    EXPECT_EQ(r.model_version,
              r.model_id == "alpha" ? "alpha-v1" : "beta-v1");
    if (r.outcome == ServeOutcome::kDegraded) ++degraded;
  }
  EXPECT_GT(server.metrics().shed.load(), 0u);
  EXPECT_EQ(server.metrics().shed.load(), degraded);
  // The global shed is exactly the sum of the per-model shed slices.
  const std::uint64_t model_shed =
      server.metrics().model_metrics("alpha").shed.load() +
      server.metrics().model_metrics("beta").shed.load();
  EXPECT_EQ(server.metrics().shed.load(), model_shed);
  EXPECT_EQ(server.metrics().completed(), futures.size());
}

// -------------------------------------------------------------------------
// Metrics.
// -------------------------------------------------------------------------

TEST_F(EngineFixture, SimdBackendGateAdmitsOrFallsBackToReference) {
  // kReference passes through the gate untouched.
  EXPECT_EQ(resolve_serving_backend(predictor_,
                                    linalg::KernelBackend::kReference, 16),
            linalg::KernelBackend::kReference);
  // kSimd must resolve to whatever the tolerance harness says on this
  // host — and the harness itself must agree with the gate's verdict.
  const linalg::KernelBackend resolved = resolve_serving_backend(
      predictor_, linalg::KernelBackend::kSimd, 16);
  const linalg::KernelReport report =
      linalg::verify_kernel_backend(linalg::KernelBackend::kSimd);
  EXPECT_EQ(resolved, report.pass ? linalg::KernelBackend::kSimd
                                  : linalg::KernelBackend::kReference);
}

TEST_F(EngineFixture, SimdServeBatchMatchesReferenceDecisions) {
  const auto scenes = make_scene_set(encoder_, region_, 33, 7);
  const Clock::time_point now = Clock::now();
  std::vector<ServeRequest> requests;
  requests.reserve(scenes.size());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    requests.push_back(make_request(i, scenes[i]));
  }

  core::SafetyMonitor ref_monitor(region_, 0.5);
  ShieldedEngine ref_engine(predictor_, ref_monitor);
  const std::vector<ServeResponse> expected =
      ref_engine.serve_batch(requests, now);

  core::SafetyMonitor simd_monitor(region_, 0.5);
  ShieldedEngine simd_engine(predictor_, simd_monitor,
                             linalg::KernelBackend::kSimd);
  const std::vector<ServeResponse> simd =
      simd_engine.serve_batch(requests, now);

  // Guard decisions must agree and actions must coincide to far below
  // any actuation-relevant precision (the forward outputs differ only by
  // the reassociated contraction rounding).
  ASSERT_EQ(simd.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(simd[i].outcome, expected[i].outcome) << i;
    EXPECT_EQ(simd[i].intervened, expected[i].intervened) << i;
    ASSERT_EQ(simd[i].action.size(), expected[i].action.size());
    for (std::size_t d = 0; d < expected[i].action.size(); ++d) {
      EXPECT_NEAR(simd[i].action[d], expected[i].action[d], 1e-9) << i;
    }
  }
  EXPECT_EQ(simd_monitor.stats().interventions,
            ref_monitor.stats().interventions);
}

TEST_F(EngineFixture, ServerWithSimdConfigResolvesGateAndServes) {
  InferenceServer::Config config;
  config.pool.workers = 2;
  config.pool.max_batch = 8;
  config.backend = linalg::KernelBackend::kSimd;
  InferenceServer server(predictor_, monitor_, config);
  // Whatever the gate decided, the server must report it and serve.
  const linalg::KernelBackend active = server.backend();
  EXPECT_TRUE(active == linalg::KernelBackend::kSimd ||
              active == linalg::KernelBackend::kReference);
  const auto scenes = make_scene_set(encoder_, region_, 24, 13);
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(scenes.size());
  for (const Vector& scene : scenes) {
    futures.push_back(server.submit_blocking(scene));
  }
  for (std::future<ServeResponse>& f : futures) {
    const ServeResponse response = f.get();
    EXPECT_NE(response.outcome, ServeOutcome::kRejected);
    EXPECT_FALSE(response.action.size() == 0);
  }
  server.stop();
}

TEST(Metrics, HistogramPercentilesBracketSamples) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_ns(0.5), 0.0);
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i * 1000);  // 1us..1ms
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.percentile_ns(0.50);
  const double p95 = h.percentile_ns(0.95);
  const double p99 = h.percentile_ns(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Bucket upper bounds over-approximate by at most 2x.
  EXPECT_GE(p50, 500.0 * 1000);
  EXPECT_LE(p50, 2.0 * 500.0 * 1000);
  EXPECT_GE(p99, 990.0 * 1000 / 2);
  EXPECT_NEAR(h.mean_ns(), 500.5 * 1000, 1000.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, ConcurrentRecordingLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8, kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, JsonDumpContainsEverySection) {
  MetricsRegistry m;
  m.submitted.store(10);
  m.served.store(7);
  m.clamped.store(2);
  m.degraded.store(1);
  m.interventions.store(2);
  m.batches.store(5);
  m.batch_items.store(10);
  m.shed.store(4);
  m.reloads.store(1);
  m.version_counters("vX").served.store(6);
  m.total_latency.record(1500000);
  const std::string json = m.to_json(2.0);
  for (const char* key :
       {"\"requests\"", "\"shield\"", "\"batching\"", "\"latency\"",
        "\"queue\"", "\"infer\"", "\"total\"", "\"p99_ms\"",
        "\"throughput_rps\"", "\"interventions\": 2",
        "\"mean_batch_size\": 2", "\"lifecycle\"", "\"shed\": 4",
        "\"reloads\": 1", "\"versions\"", "\"vX\"", "\"served\": 6",
        "\"queue_depth_peak\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_DOUBLE_EQ(m.mean_batch_size(), 2.0);
  EXPECT_EQ(m.completed(), 10u);
  m.note_queue_depth(3);
  m.note_queue_depth(2);
  EXPECT_EQ(m.queue_depth_peak.load(), 3u);
  // Version slices must survive reset() by identity (handed-out
  // references stay valid) while their counts zero.
  VersionCounters& slice = m.version_counters("vX");
  m.reset();
  EXPECT_EQ(m.submitted.load(), 0u);
  EXPECT_EQ(m.total_latency.count(), 0u);
  EXPECT_EQ(m.shed.load(), 0u);
  EXPECT_EQ(slice.served.load(), 0u);
  EXPECT_EQ(&slice, &m.version_counters("vX"));
}

// -------------------------------------------------------------------------
// Quantized serving: the exact integer semantics under the shield.
// -------------------------------------------------------------------------

/// Input-domain bound covering the whole region box (the scene sets are
/// sampled inside it), so saturation never distorts the replay.
double region_input_limit(const verify::InputRegion& region) {
  double limit = 1.0;
  for (const auto& iv : region.box) {
    limit = std::max(limit, std::max(std::abs(iv.lo), std::abs(iv.hi)));
  }
  return limit;
}

/// make_serve_artifact + an attached quantized payload (re-hashed).
registry::ModelArtifact make_quantized_serve_artifact(
    const std::string& version, double lateral_bias,
    const verify::InputRegion& region, double threshold = 1.0,
    int frac_bits = 10) {
  registry::ModelArtifact artifact =
      make_serve_artifact(version, lateral_bias, region, threshold);
  registry::attach_quantized(artifact, frac_bits,
                             region_input_limit(region));
  std::stringstream ss;
  artifact.content_hash = registry::save_artifact(ss, artifact);
  return artifact;
}

/// Scalar fixed-point replay of one scene: the same saturating
/// quantization the engine applies, then QuantizedNetwork::forward_fixed
/// (the semantic reference the CNF encoder compiles) and the same MDN
/// head parse — what every quantized serving decision must match bit for
/// bit.
Vector replay_quantized_mean(const registry::ModelArtifact& artifact,
                             const nn::QuantizedEngine& engine,
                             const nn::MdnHead& head, const Vector& scene) {
  const nn::QuantizedNetwork& q = artifact.quantized->network;
  std::vector<std::int64_t> fixed(scene.size());
  for (std::size_t j = 0; j < scene.size(); ++j) {
    fixed[j] = engine.to_fixed(scene[j]);
  }
  const std::vector<std::int64_t> out = q.forward_fixed(fixed);
  Vector raw(out.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    raw[j] = engine.from_fixed(out[j]);
  }
  return head.parse(raw).mean();
}

TEST_F(EngineFixture, QuantizedBackendGateAdmitsPayloadOrFallsBack) {
  const registry::ModelArtifact plain =
      make_serve_artifact("vf", 0.6, region_);
  const registry::ModelArtifact quant =
      make_quantized_serve_artifact("vq", 0.6, region_);

  // No payload: kQuantized degrades to float reference with a warning.
  const ResolvedBackend none = resolve_serving_backend(
      plain, linalg::KernelBackend::kQuantized, 16);
  EXPECT_EQ(none.backend, linalg::KernelBackend::kReference);

  // Payload present: admitted; the inner integer kernel must agree with
  // the bitwise harness's verdict on this host.
  const ResolvedBackend admitted = resolve_serving_backend(
      quant, linalg::KernelBackend::kQuantized, 16);
  EXPECT_EQ(admitted.backend, linalg::KernelBackend::kQuantized);
  const linalg::QuantKernelReport report =
      linalg::verify_quantized_kernels();
  EXPECT_EQ(admitted.quantized_kernel,
            report.pass ? linalg::KernelBackend::kQuantized
                        : linalg::KernelBackend::kReference);

  // Non-quantized requests on a quantized artifact defer to the float
  // gates untouched.
  const ResolvedBackend ref = resolve_serving_backend(
      quant, linalg::KernelBackend::kReference, 16);
  EXPECT_EQ(ref.backend, linalg::KernelBackend::kReference);
}

TEST_F(EngineFixture, QuantizedServeBatchBitwiseMatchesScalarReplay) {
  const registry::ModelArtifact artifact =
      make_quantized_serve_artifact("vq", 0.6, region_, 0.5);
  const registry::ModelSnapshot snapshot(
      artifact, linalg::KernelBackend::kQuantized);
  const ShieldedEngine engine(snapshot);
  ASSERT_NE(snapshot.quantized_engine(), nullptr);

  // 33 requests with expired deadlines sprinkled in, exactly like the
  // float equivalence test.
  const auto scenes = make_scene_set(encoder_, region_, 33, 7);
  const Clock::time_point now = Clock::now();
  std::vector<ServeRequest> requests;
  requests.reserve(scenes.size());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    requests.push_back(make_request(
        i, scenes[i],
        i % 5 == 0 ? now - std::chrono::milliseconds(1)
                   : Clock::time_point::max()));
  }
  const std::vector<ServeResponse> responses =
      engine.serve_batch(requests, now);

  core::SafetyMonitor replay_monitor(region_, 0.5);
  const Vector safe = replay_monitor.safe_action();
  bool any_clamped = false;
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServeResponse& r = responses[i];
    EXPECT_EQ(r.backend, linalg::KernelBackend::kQuantized) << i;
    if (i % 5 == 0) {
      EXPECT_EQ(r.outcome, ServeOutcome::kDegraded) << i;
      EXPECT_EQ(r.action[highway::kActionLateral],
                safe[highway::kActionLateral]);
      continue;
    }
    // Bitwise: the served action IS the scalar fixed-point replay's.
    const Vector mean = replay_quantized_mean(
        artifact, *snapshot.quantized_engine(), snapshot.predictor().head,
        scenes[i]);
    const core::GuardDecision expected =
        replay_monitor.guard_action(scenes[i], mean);
    EXPECT_EQ(r.outcome, expected.intervened ? ServeOutcome::kClamped
                                             : ServeOutcome::kServed)
        << i;
    EXPECT_EQ(r.assumption_hit, expected.assumption_hit) << i;
    EXPECT_EQ(r.intervened, expected.intervened) << i;
    ASSERT_EQ(r.action.size(), expected.action.size());
    for (std::size_t d = 0; d < expected.action.size(); ++d) {
      EXPECT_EQ(r.action[d], expected.action[d]) << i << "," << d;
    }
    any_clamped = any_clamped || expected.intervened;

    // Single-request quantized serve is the same arithmetic at batch 1.
    ServeRequest single = make_request(i, scenes[i]);
    const ServeResponse one = engine.serve(single, now);
    EXPECT_EQ(one.outcome, r.outcome) << i;
    for (std::size_t d = 0; d < r.action.size(); ++d) {
      EXPECT_EQ(one.action[d], r.action[d]) << i << "," << d;
    }
  }
  EXPECT_TRUE(any_clamped);
}

TEST_F(EngineFixture, HotSwapBetweenFloatAndQuantizedUnderTraffic) {
  const auto scenes = make_scene_set(encoder_, region_, 900, 51);
  const registry::ModelArtifact v1 = make_serve_artifact("v1", 0.6, region_);
  const registry::ModelArtifact v2 =
      make_quantized_serve_artifact("v2", 1.2, region_);
  const registry::ModelArtifact v3 = make_serve_artifact("v3", 0.9, region_);

  InferenceServer::Config cfg;
  cfg.queue_capacity = 64;
  cfg.pool.workers = 2;
  cfg.pool.max_batch = 8;
  cfg.backend = linalg::KernelBackend::kQuantized;
  InferenceServer server(v1, cfg);
  // v1 has no payload: the gate falls back to float reference kernels.
  EXPECT_EQ(server.backend(), linalg::KernelBackend::kReference);

  // The producer swaps models at submission milestones. With a 64-slot
  // queue, everything more than 64 submissions behind a milestone has
  // already been popped — so each version is guaranteed a non-empty
  // slice of traffic under any thread scheduling (TSan included), while
  // the swap still races live workers mid-batch.
  std::vector<std::future<ServeResponse>> futures(scenes.size());
  std::thread producer([&] {
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      if (i == 300) {
        EXPECT_EQ(server.reload(v2), linalg::KernelBackend::kQuantized);
      }
      if (i == 600) {
        EXPECT_EQ(server.reload(v3), linalg::KernelBackend::kReference);
      }
      futures[i] = server.submit_blocking(scenes[i]);
    }
  });
  producer.join();
  server.stop();
  EXPECT_EQ(server.metrics().reloads.load(), 2u);

  // Every response carries the version AND the arithmetic that produced
  // it; all three versions took traffic, v2's through the integer engine.
  std::map<std::string, std::vector<std::size_t>> by_version;
  std::vector<ServeResponse> responses(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    responses[i] = futures[i].get();
    const ServeResponse& r = responses[i];
    ASSERT_NE(r.outcome, ServeOutcome::kRejected) << i;
    EXPECT_EQ(r.backend, r.model_version == "v2"
                             ? linalg::KernelBackend::kQuantized
                             : linalg::KernelBackend::kReference)
        << i;
    by_version[r.model_version].push_back(i);
  }
  ASSERT_EQ(by_version.size(), 3u);
  for (const char* v : {"v1", "v2", "v3"}) {
    EXPECT_GT(by_version[v].size(), 0u) << v;
  }

  // The quantized slice of traffic must replay bitwise through the
  // scalar fixed-point reference — shield decisions included.
  const nn::QuantizedEngine replay_engine(
      v2.quantized->network, v2.quantized->input_limit,
      linalg::KernelBackend::kReference);
  const core::TrainedPredictor v2_predictor = v2.predictor();
  core::SafetyMonitor replay_monitor(v2.monitor.region,
                                     v2.monitor.lateral_threshold);
  std::uint64_t replayed_interventions = 0;
  for (const std::size_t i : by_version["v2"]) {
    const Vector mean = replay_quantized_mean(v2, replay_engine,
                                              v2_predictor.head, scenes[i]);
    const core::GuardDecision expected =
        replay_monitor.guard_action(scenes[i], mean);
    if (expected.intervened) ++replayed_interventions;
    // Bitwise per-response: the served action IS the replayed one.
    EXPECT_EQ(responses[i].intervened, expected.intervened) << i;
    ASSERT_EQ(responses[i].action.size(), expected.action.size());
    for (std::size_t d = 0; d < expected.action.size(); ++d) {
      EXPECT_EQ(responses[i].action[d], expected.action[d]) << i;
    }
  }
  VersionCounters& v2_slice = server.metrics().version_counters("v2");
  EXPECT_EQ(v2_slice.interventions.load(), replayed_interventions);
  EXPECT_EQ(v2_slice.completed(), by_version["v2"].size());

  // Per-backend metrics slices: the quantized slice is exactly v2's
  // traffic, the reference slice is v1's + v3's, and the dump carries
  // the "backends" section.
  VersionCounters& qslice = server.metrics().backend_counters("quantized");
  VersionCounters& rslice = server.metrics().backend_counters("reference");
  EXPECT_EQ(qslice.completed(), by_version["v2"].size());
  EXPECT_EQ(rslice.completed(),
            by_version["v1"].size() + by_version["v3"].size());
  EXPECT_EQ(qslice.interventions.load(), replayed_interventions);
  const std::string json = server.metrics().to_json(1.0);
  for (const char* key : {"\"backends\"", "\"quantized\"", "\"reference\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace safenn::serve
