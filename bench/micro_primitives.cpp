// Micro-benchmarks for the primitives the pipeline leans on: K-means and
// one Lloyd pass, Hungarian matching, a view's modal offsets, one
// cluster-tracker update, ARIMA/LSTM fitting and Gaussian conditional
// variance. Engineering hygiene, not a paper artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "cluster/dynamic_cluster.hpp"
#include "cluster/hungarian.hpp"
#include "cluster/kmeans.hpp"
#include "common/kernels.hpp"
#include "common/soa.hpp"
#include "core/estimation.hpp"
#include "forecast/arima.hpp"
#include "forecast/lstm.hpp"
#include "gaussian/gaussian_model.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace resmon;

void BM_KMeansScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix points(n, 1);
  for (std::size_t i = 0; i < n; ++i) points(i, 0) = rng.uniform();
  for (auto _ : state) {
    Rng local(2);
    benchmark::DoNotOptimize(cluster::kmeans(points, 3, local));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KMeansScalar)->Arg(100)->Arg(1000)->Arg(4000);

// Same K-means, forced onto one kernel path (0 = scalar, 1 = SIMD): the
// ratio isolates what the AVX2 kernels buy. Results are bit-identical
// across paths (tests/test_kernels.cpp), so only speed differs.
void BM_KMeansKernelPath(benchmark::State& state) {
  const bool simd = state.range(0) == 1;
  if (simd && !kern::simd_supported()) {
    state.SkipWithError("no AVX2 on this host");
    return;
  }
  const kern::Path saved = kern::active_path();
  kern::set_path(simd ? kern::Path::kSimd : kern::Path::kScalar);
  const std::size_t n = 2000;
  Rng rng(1);
  Matrix points(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) points(i, c) = rng.uniform();
  }
  for (auto _ : state) {
    Rng local(2);
    benchmark::DoNotOptimize(cluster::kmeans(points, 10, local));
  }
  state.SetItemsProcessed(state.iterations() * n);
  kern::set_path(saved);
}
BENCHMARK(BM_KMeansKernelPath)->Arg(0)->Arg(1);

void BM_Hungarian(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Matrix w(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) w(r, c) = rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::max_weight_assignment(w));
  }
}
BENCHMARK(BM_Hungarian)->Arg(3)->Arg(16)->Arg(64)->Arg(128);

void BM_ArimaFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<double> x(n);
  double s = 0.0;
  for (double& v : x) {
    s = 0.9 * s + rng.normal(0.0, 0.05);
    v = 0.5 + s;
  }
  for (auto _ : state) {
    forecast::ArimaForecaster f(forecast::ArimaOrder{.p = 2, .q = 1});
    f.fit(x);
    benchmark::DoNotOptimize(f.forecast(5));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ArimaFit)->Arg(1000)->Arg(3000)->Unit(benchmark::kMillisecond);

void BM_LstmFit(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> x(600);
  double s = 0.0;
  for (double& v : x) {
    s = 0.95 * s + rng.normal(0.0, 0.03);
    v = 0.5 + s;
  }
  for (auto _ : state) {
    forecast::LstmForecaster f({.hidden_size = 12, .window = 16,
                                .epochs = 2, .stride = 2},
                               1);
    f.fit(x);
    benchmark::DoNotOptimize(f.forecast(1));
  }
}
BENCHMARK(BM_LstmFit)->Unit(benchmark::kMillisecond);

void BM_LstmForecast50(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> x(400);
  for (double& v : x) v = rng.uniform();
  forecast::LstmForecaster f({.hidden_size = 12, .window = 16, .epochs = 1},
                             1);
  f.fit(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.forecast(50));
  }
}
BENCHMARK(BM_LstmForecast50);

void BM_GaussianConditionalVariance(benchmark::State& state) {
  const std::size_t n = 100;
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix train(500, n);
  for (std::size_t t = 0; t < 500; ++t) {
    for (std::size_t i = 0; i < n; ++i) train(t, i) = rng.uniform();
  }
  const gaussian::GaussianModel model = gaussian::GaussianModel::fit(train);
  std::vector<std::size_t> monitors(k);
  for (std::size_t i = 0; i < k; ++i) monitors[i] = i * (n / k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.conditional_variance(monitors));
  }
}
BENCHMARK(BM_GaussianConditionalVariance)->Arg(5)->Arg(10)->Arg(25);

// One view's modal clusters and eq. (12) offsets over the paper's M' + 1 =
// 6 window (core::modal_offsets, one kern::offset_lanes pass), at
// (N, d, K) = (range 0, range 1, range 2). Nodes keep their cluster with
// probability 0.8 per step, so most have a clear mode and some tie.
void BM_ModalOffsets(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const std::size_t k = static_cast<std::size_t>(state.range(2));
  constexpr std::size_t kWindow = 6;
  Rng rng(8);
  cluster::ClusterHistory history(kWindow);
  cluster::Clustering clustering;
  clustering.assignment.resize(n);
  for (std::size_t& j : clustering.assignment) j = rng.index(k);
  for (std::size_t step = 0; step < kWindow; ++step) {
    clustering.centroids = Matrix(k, d);
    for (double& v : clustering.centroids.data()) v = rng.uniform();
    Matrix snapshot(n, d);
    for (double& v : snapshot.data()) v = rng.uniform();
    for (std::size_t& j : clustering.assignment) {
      if (rng.uniform() >= 0.8) j = rng.index(k);
    }
    history.push(snapshot, clustering);
  }
  std::vector<std::size_t> modal(n);
  Matrix offsets;
  for (auto _ : state) {
    core::modal_offsets(history, kWindow, true, modal, &offsets);
    benchmark::DoNotOptimize(modal.data());
    benchmark::DoNotOptimize(offsets.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ModalOffsets)
    ->Args({12478, 1, 3})
    ->Args({12478, 4, 3})
    ->Args({1000, 1, 10})
    ->Unit(benchmark::kMicrosecond);

// One DynamicClusterTracker::update (K-means with two restarts, eq. (10)
// weights, Hungarian re-index, centroids) per slot of a synthetic `google`
// trace at the paper's fleet size, K = 3, M = 1: range 0 = 1 clusters one
// resource's view, range 0 = 4 the joint view of four resources.
void BM_ClusterTrackerUpdate(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kNodes = 12478;
  constexpr std::size_t kSteps = 64;
  trace::SyntheticProfile profile = trace::profile_by_name("google");
  profile.num_nodes = kNodes;
  profile.num_resources = d;
  profile.num_steps = kSteps;
  const trace::InMemoryTrace t = trace::generate(profile, 1);
  cluster::DynamicClusterTracker tracker({.k = 3, .history_m = 1}, 9);
  cluster::ClusterHistory history(2);
  std::size_t step = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix& values = history.advance().values;
    values.resize(kNodes, d);
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (std::size_t r = 0; r < d; ++r) values(i, r) = t.value(i, step, r);
    }
    step = (step + 1) % kSteps;
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracker.update(history).assignment.data());
  }
  state.SetItemsProcessed(state.iterations() * kNodes);
}
BENCHMARK(BM_ClusterTrackerUpdate)->Arg(1)->Arg(4)->Unit(
    benchmark::kMicrosecond);

// One Lloyd pass (kern::lloyd_lanes over every four-chunk group, serial)
// at the paper's fleet size, (d, K) = (range 0, range 1): points uniform in
// [0, 1]^d, centroids drawn from them. The interleaved copy and the
// scatter to point order happen once per K-means restart, not per pass,
// so they are outside the timed loop.
void BM_LloydPass(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kNodes = 12478;
  constexpr std::size_t kGroup = kern::kLloydChunk * kern::kLloydLanes;
  Rng rng(10);
  Matrix points(kNodes, d);
  for (double& v : points.data()) v = rng.uniform();
  Matrix centroids(k, d);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = rng.index(kNodes);
    for (std::size_t c = 0; c < d; ++c) centroids(j, c) = points(i, c);
  }
  SoaMatrix soa;
  soa.assign_from(points);
  std::vector<double> lanes(kNodes * d);
  kern::lloyd_interleave(soa.col_ptrs(), kNodes, d, k, lanes.data());
  std::vector<std::size_t> assignment(kNodes);
  std::vector<std::size_t> lane_assignment(kNodes);
  const std::size_t chunks =
      (kNodes + kern::kLloydChunk - 1) / kern::kLloydChunk;
  std::vector<double> inertia(chunks);
  std::vector<std::size_t> counts(chunks * k);
  std::vector<double> sums(chunks * k * d);
  for (auto _ : state) {
    for (std::size_t begin = 0; begin < kNodes; begin += kGroup) {
      const std::size_t c = begin / kern::kLloydChunk;
      kern::lloyd_lanes({soa.col_ptrs(), lanes.data()}, d,
                        centroids.data().data(), k, begin,
                        std::min(kNodes, begin + kGroup),
                        {assignment.data(), lane_assignment.data()},
                        {inertia.data() + c, counts.data() + c * k,
                         sums.data() + c * k * d});
    }
    benchmark::DoNotOptimize(inertia.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kNodes);
}
BENCHMARK(BM_LloydPass)
    ->Args({1, 3})
    ->Args({4, 3})
    ->Args({1, 10})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
