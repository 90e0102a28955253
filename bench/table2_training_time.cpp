// Table II — Aggregated training time of the forecasting models on one
// cluster centroid over the entire monitoring duration, following the
// paper's schedule: initial fit after 1000 steps, retrain every 288 steps.
//
// Expected shape: ARIMA trains one to two orders of magnitude faster than
// LSTM; both are small compared to the monitoring duration itself.
// Absolute numbers differ from the paper's i7-6700 testbed; the ordering is
// what the table establishes.
#include <benchmark/benchmark.h>

#include "cluster/dynamic_cluster.hpp"
#include "collect/fleet_collector.hpp"
#include "forecast/arima.hpp"
#include "forecast/lstm.hpp"
#include "forecast/managed.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace resmon;

/// The centroid series of cluster 0 for a dataset profile: collection at
/// B = 0.3 plus dynamic clustering, exactly what the models train on.
std::vector<double> centroid_series(const std::string& dataset,
                                    std::size_t steps) {
  trace::SyntheticProfile profile = trace::profile_by_name(dataset);
  profile.num_nodes = 40;
  profile.num_steps = steps;
  profile.num_resources = 1;
  const trace::InMemoryTrace t = trace::generate(profile, 1);

  collect::FleetCollector fleet(
      t, collect::make_policy_factory(collect::PolicyKind::kAdaptive, 0.3));
  transport::CentralStore store(t.num_nodes(), t.num_resources());
  const cluster::DynamicClusterOptions options{.k = 3};
  cluster::DynamicClusterTracker tracker(options, 1);
  cluster::ClusterHistory history(options.history_m + 1);
  std::vector<double> series;
  series.reserve(steps);
  for (std::size_t step = 0; step < steps; ++step) {
    for (const auto& m : fleet.step(step)) store.apply(m);
    Matrix& snapshot = history.advance().values;
    snapshot.resize(t.num_nodes(), 1);
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      snapshot(i, 0) = store.stored(i)[0];
    }
    series.push_back(tracker.update(history).centroids(0, 0));
  }
  return series;
}

/// Replay the paper's observe/retrain schedule and report the total time
/// spent in fit() as the benchmark's metric.
void run_schedule(benchmark::State& state, const std::string& dataset,
                  std::size_t steps, forecast::ForecasterKind kind) {
  const std::vector<double> series = centroid_series(dataset, steps);
  double total_training = 0.0;
  std::size_t fits = 0;
  for (auto _ : state) {
    forecast::ManagedForecaster managed(
        forecast::make_forecaster(kind, 1),
        {.initial_steps = 1000, .retrain_interval = 288});
    for (const double v : series) managed.observe(v);
    benchmark::DoNotOptimize(managed.forecast(1));
    total_training += managed.total_training_seconds();
    fits += managed.fits_completed();
  }
  state.counters["train_s_total"] = total_training /
                                    static_cast<double>(state.iterations());
  state.counters["fits"] =
      static_cast<double>(fits) / static_cast<double>(state.iterations());
  state.counters["series_len"] = static_cast<double>(series.size());
}

void BM_Arima_Alibaba(benchmark::State& s) {
  run_schedule(s, "alibaba", 3000, forecast::ForecasterKind::kArima);
}
void BM_Arima_Bitbrains(benchmark::State& s) {
  run_schedule(s, "bitbrains", 2600, forecast::ForecasterKind::kArima);
}
void BM_Arima_Google(benchmark::State& s) {
  run_schedule(s, "google", 2600, forecast::ForecasterKind::kArima);
}
void BM_AutoArima_Alibaba(benchmark::State& s) {
  run_schedule(s, "alibaba", 3000, forecast::ForecasterKind::kAutoArima);
}
void BM_Lstm_Alibaba(benchmark::State& s) {
  run_schedule(s, "alibaba", 3000, forecast::ForecasterKind::kLstm);
}
void BM_Lstm_Bitbrains(benchmark::State& s) {
  run_schedule(s, "bitbrains", 2600, forecast::ForecasterKind::kLstm);
}
void BM_Lstm_Google(benchmark::State& s) {
  run_schedule(s, "google", 2600, forecast::ForecasterKind::kLstm);
}

}  // namespace

BENCHMARK(BM_Arima_Alibaba)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Arima_Bitbrains)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Arima_Google)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_AutoArima_Alibaba)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Lstm_Alibaba)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Lstm_Bitbrains)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Lstm_Google)->Unit(benchmark::kMillisecond)->Iterations(1);

BENCHMARK_MAIN();
