// Substrate micro-benchmarks (google-benchmark): throughput of the
// building blocks every reproduced experiment rests on.

#include <benchmark/benchmark.h>

#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "coverage/neuron_coverage.hpp"
#include "highway/scenario.hpp"
#include "highway/scene_encoder.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "nn/mdn.hpp"
#include "nn/qengine.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "registry/artifact.hpp"
#include "sat/solver.hpp"
#include "serve/request_queue.hpp"
#include "verify/interval.hpp"

namespace {

using namespace safenn;

nn::Network make_net(std::size_t width) {
  Rng rng(1);
  return nn::Network::make_i4xn(84, width, 15, nn::Activation::kRelu, rng);
}

void BM_NetworkForward(benchmark::State& state) {
  const nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  Rng rng(2);
  linalg::Vector x(84);
  for (auto& v : x) v = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
}
// Arg(96): the width of the served fleet's predictors.
BENCHMARK(BM_NetworkForward)->Arg(10)->Arg(30)->Arg(60)->Arg(96);

// The network half of every verification cache key: the canonical text
// streamed into FNV-1a (I4x96: ~36k doubles).
void BM_NetworkChecksum(benchmark::State& state) {
  const nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::network_checksum(net));
  }
}
BENCHMARK(BM_NetworkChecksum)->Arg(96)->Unit(benchmark::kMillisecond);

// Publish + load of a quantized artifact in the packed (v3) encoding,
// in memory: render, hash, pack, then unpack, re-hash and parse.
void BM_ArtifactPackedRoundTrip(benchmark::State& state) {
  registry::ModelArtifact artifact;
  artifact.version = "bench";
  artifact.head = nn::MdnHead(3, 2);  // 3 + 2*3*2 = 15 raw outputs
  artifact.network = make_net(static_cast<std::size_t>(state.range(0)));
  artifact.monitor.region.box.assign(84, verify::Interval{0.0, 1.0});
  registry::attach_quantized(artifact, 8, 1.0);
  for (auto _ : state) {
    std::stringstream ss;
    registry::save_artifact(ss, artifact, registry::ArtifactEncoding::kPacked);
    benchmark::DoNotOptimize(registry::load_artifact(ss).content_hash);
  }
}
BENCHMARK(BM_ArtifactPackedRoundTrip)->Arg(96)->Unit(benchmark::kMillisecond);

void BM_NetworkBackward(benchmark::State& state) {
  nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  linalg::Vector x(84), grad(15);
  for (auto& v : x) v = rng.uniform(0, 1);
  for (auto& v : grad) v = rng.normal();
  for (auto _ : state) {
    const nn::ForwardTrace trace = net.forward_trace(x);
    benchmark::DoNotOptimize(net.backward(trace, grad));
  }
}
BENCHMARK(BM_NetworkBackward)->Arg(10)->Arg(60);

void BM_NetworkForwardBatch(benchmark::State& state) {
  const nn::Network net = make_net(32);
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  linalg::Matrix x(batch, 84);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward_batch(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_NetworkForwardBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_TrainerEpochSteadyState(benchmark::State& state) {
  // Steady-state epoch cost of Trainer::train with every per-batch
  // scratch hoisted (batch/out-grad/delta matrices, the Adam step
  // buffers and the loss/regularizer vectors are allocated once per
  // train() call, not per batch): each iteration is one full Adam epoch
  // over 256 samples. The argument is num_workers; 0 means the fused
  // sequential engine, 1 the sharded engine forced at one worker — their
  // gap is the parallel path's bookkeeping overhead, which BENCH_train
  // bounds at <= 5%.
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  nn::Network net = nn::Network::make_mlp({12, 32, 32, 4},
                                          nn::Activation::kRelu,
                                          nn::Activation::kIdentity, rng);
  std::vector<linalg::Vector> xs, ys;
  for (int i = 0; i < 256; ++i) {
    linalg::Vector x(12), y(4);
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();
    xs.push_back(std::move(x));
    ys.push_back(std::move(y));
  }
  nn::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.num_workers = workers == 0 ? 1 : workers;
  cfg.force_parallel_path = workers > 0;
  nn::MseLoss loss;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::Trainer(cfg).train(net, loss, xs, ys));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_TrainerEpochSteadyState)->Arg(0)->Arg(1)->Arg(2);

void BM_MatvecTransposed(benchmark::State& state) {
  // Probes the zero-skip branch kept in Matrix::matvec_transposed: the
  // argument is the percentage of zero entries in x (backprop deltas
  // behind ReLU are roughly half zeros). If the 0%-zeros case were
  // faster without the branch, the skip should be removed like in the
  // other kernels; measured on this shape the 50/90% rows win big and
  // the dense row is within noise, so the branch stays.
  const std::size_t n = 64;
  Rng rng(11);
  linalg::Matrix w(n, n);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.normal();
  linalg::Vector x(n);
  for (auto& v : x) {
    v = rng.uniform(0, 100) < static_cast<double>(state.range(0))
            ? 0.0
            : rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.matvec_transposed(x));
  }
}
BENCHMARK(BM_MatvecTransposed)->Arg(0)->Arg(50)->Arg(90);

void BM_MdnNll(benchmark::State& state) {
  const nn::MdnHead head(3, 2);
  Rng rng(4);
  linalg::Vector raw(head.raw_output_size()), target{0.3, -0.5}, grad;
  for (auto& v : raw) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(head.nll(raw, target, &grad));
  }
}
BENCHMARK(BM_MdnNll);

void BM_IntervalPropagation(benchmark::State& state) {
  const nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  const verify::Box box(84, verify::Interval{0.0, 1.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::propagate_bounds(net, box));
  }
}
BENCHMARK(BM_IntervalPropagation)->Arg(10)->Arg(60);

void BM_SimplexDense(benchmark::State& state) {
  // Random feasible LP of the given size.
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  lp::Problem p;
  p.set_maximize(true);
  std::vector<double> witness;
  for (int j = 0; j < n; ++j) {
    p.add_variable(-2, 2, rng.normal());
    witness.push_back(rng.uniform(-1, 1));
  }
  for (int i = 0; i < n; ++i) {
    lp::LinearTerms terms;
    double lhs = 0;
    for (int j = 0; j < n; ++j) {
      const double c = rng.normal();
      terms.emplace_back(j, c);
      lhs += c * witness[static_cast<std::size_t>(j)];
    }
    p.add_constraint(std::move(terms), lp::Relation::kLe, lhs + 1.0);
  }
  lp::SimplexSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
}
BENCHMARK(BM_SimplexDense)->Arg(20)->Arg(60)->Arg(120);

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  milp::Model m;
  m.set_maximize(true);
  lp::LinearTerms terms;
  double total = 0;
  for (int i = 0; i < n; ++i) {
    const double w = rng.uniform(1, 10);
    total += w;
    terms.emplace_back(
        m.add_variable(0, 1, milp::VarType::kBinary, rng.uniform(1, 20)), w);
  }
  m.add_constraint(std::move(terms), lp::Relation::kLe, total * 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(milp::BranchAndBound().solve(m));
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(15)->Arg(25);

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  sat::Cnf cnf;
  std::vector<std::vector<sat::Var>> v(static_cast<std::size_t>(holes + 1));
  for (int p = 0; p <= holes; ++p) {
    for (int h = 0; h < holes; ++h) {
      v[static_cast<std::size_t>(p)].push_back(cnf.new_var());
    }
  }
  for (int p = 0; p <= holes; ++p) {
    std::vector<sat::Lit> c(v[static_cast<std::size_t>(p)].begin(),
                            v[static_cast<std::size_t>(p)].end());
    cnf.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 <= holes; ++p1) {
      for (int p2 = p1 + 1; p2 <= holes; ++p2) {
        cnf.add_binary(-v[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
                       -v[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]);
      }
    }
  }
  for (auto _ : state) {
    sat::Solver solver;
    benchmark::DoNotOptimize(solver.solve(cnf));
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7);

void BM_SimulatorStep(benchmark::State& state) {
  highway::Scenario sc = highway::make_scenario(
      highway::TrafficDensity::kDense, 7);
  highway::HighwaySim sim(sc.sim);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.vehicles().data());
  }
}
BENCHMARK(BM_SimulatorStep);

void BM_SceneEncoding(benchmark::State& state) {
  highway::Scenario sc = highway::make_scenario(
      highway::TrafficDensity::kMedium, 8);
  highway::HighwaySim sim(sc.sim);
  sim.run(50);
  const highway::SceneEncoder encoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(sim, 0));
  }
}
BENCHMARK(BM_SceneEncoding);

void BM_QuantizedForward(benchmark::State& state) {
  const nn::Network net = make_net(10);
  const nn::QuantizedNetwork q = nn::QuantizedNetwork::quantize(net, 8);
  Rng rng(9);
  linalg::Vector x(84);
  for (auto& v : x) v = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.forward_real(x));
  }
}
BENCHMARK(BM_QuantizedForward);

// Fixed-point forward, allocating path vs hoisted-scratch path: the
// per-call vector churn the serving engine avoids (Arg = hidden width).
void BM_QuantizedForwardFixedAlloc(benchmark::State& state) {
  const nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  const nn::QuantizedNetwork q = nn::QuantizedNetwork::quantize(net, 8);
  Rng rng(9);
  std::vector<std::int64_t> x(84);
  for (auto& v : x) v = q.to_fixed(rng.uniform(-1, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.forward_fixed(x));
  }
}
BENCHMARK(BM_QuantizedForwardFixedAlloc)->Arg(10)->Arg(30);

void BM_QuantizedForwardFixedScratch(benchmark::State& state) {
  const nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  const nn::QuantizedNetwork q = nn::QuantizedNetwork::quantize(net, 8);
  Rng rng(9);
  std::vector<std::int64_t> x(84);
  for (auto& v : x) v = q.to_fixed(rng.uniform(-1, 1));
  nn::FixedScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.forward_fixed(x, scratch));
  }
}
BENCHMARK(BM_QuantizedForwardFixedScratch)->Arg(10)->Arg(30);

// The packed engine's batched integer forward at serving batch sizes.
void BM_QuantizedEngineBatch(benchmark::State& state) {
  const nn::Network net = make_net(30);
  const nn::QuantizedNetwork q = nn::QuantizedNetwork::quantize(net, 8);
  const nn::QuantizedEngine engine(q, 4.0,
                                   linalg::KernelBackend::kQuantized);
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  linalg::Int32Matrix in;
  in.resize(batch, q.input_size());
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < q.input_size(); ++c) {
      in(r, c) = static_cast<std::int32_t>(engine.to_fixed(rng.uniform(-1, 1)));
    }
  }
  nn::QuantizedEngine::Scratch scratch;
  std::vector<std::int64_t> out;
  for (auto _ : state) {
    engine.forward_fixed_batch(in, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_QuantizedEngineBatch)->Arg(1)->Arg(8)->Arg(32);

// The serving queue's uncontended fast path: try_push + the single-lock
// try_pop_batch drain, no worker parked. This is the path the
// waiter-counted notifies optimize — with nobody blocked on either
// condition variable, neither side should touch a futex. Arg = batch.
void BM_RequestQueuePushPopBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  serve::RequestQueue queue(1024);
  std::vector<serve::ServeRequest> drained;
  drained.reserve(batch);
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      serve::ServeRequest request;
      request.id = i;
      queue.try_push(std::move(request));
    }
    drained.clear();
    benchmark::DoNotOptimize(queue.try_pop_batch(drained, batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_RequestQueuePushPopBatch)->Arg(1)->Arg(16)->Arg(64);

// Cross-thread handoff: one producer pushing against one consumer
// draining micro-batches of 16 — the shape worker pools actually see.
// Wakeups here go through notify_one (notify_all is reserved for
// close()), so a sleeping consumer costs one wake, not a stampede.
void BM_RequestQueueHandoff(benchmark::State& state) {
  serve::RequestQueue queue(1024);
  std::thread consumer([&queue] {
    std::vector<serve::ServeRequest> popped;
    popped.reserve(16);
    for (;;) {
      popped.clear();
      if (queue.pop_batch(popped, 16) == 0) return;
    }
  });
  std::uint64_t id = 0;
  for (auto _ : state) {
    serve::ServeRequest request;
    request.id = id++;
    queue.push(std::move(request));
  }
  queue.close();
  consumer.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RequestQueueHandoff);

void BM_CoverageRecord(benchmark::State& state) {
  const nn::Network net = make_net(20);
  coverage::CoverageTracker tracker(net);
  Rng rng(10);
  linalg::Vector x(84);
  for (auto& v : x) v = rng.uniform(0, 1);
  for (auto _ : state) {
    tracker.record_input(net, x);
  }
}
BENCHMARK(BM_CoverageRecord);

}  // namespace

BENCHMARK_MAIN();
