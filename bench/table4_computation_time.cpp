// Table IV — Computation time (monitor selection + model building) of each
// approach in the §VI-E setting: 100 nodes, 500 training steps, K = 10.
//
// Expected shape: Min-distance < Proposed < Top-W < Batch Selection <
// Top-W-Update. Absolute numbers depend on the machine; the ordering is the
// result (Top-W-Update re-evaluates the conditional variance of the whole
// fleet for every candidate at every pick).
//
// Also includes BM_PipelineStep, which times the full monitoring pipeline
// loop at 1/2/4 threads and reports the per-stage wall-time split
// (collect/cluster/forecast) from MonitoringPipeline::stage_timers().
#include <benchmark/benchmark.h>

#include "sim/driver.hpp"
#include "gaussian/monitor_experiment.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace resmon;

const trace::InMemoryTrace& experiment_trace(const std::string& dataset) {
  static std::map<std::string, trace::InMemoryTrace> cache;
  auto it = cache.find(dataset);
  if (it == cache.end()) {
    trace::SyntheticProfile profile = trace::profile_by_name(dataset);
    profile.num_nodes = 100;
    profile.num_steps = 1000;
    it = cache.emplace(dataset, trace::generate(profile, 1)).first;
  }
  return it->second;
}

void run_method(benchmark::State& state, const std::string& dataset,
                gaussian::MonitorMethod method) {
  const trace::InMemoryTrace& t = experiment_trace(dataset);
  gaussian::MonitorExperimentOptions opts;
  opts.num_monitors = 25;
  opts.train_steps = 500;
  opts.test_steps = 500;
  double selection_seconds = 0.0;
  double rmse = 0.0;
  for (auto _ : state) {
    const gaussian::MonitorExperimentResult r =
        gaussian::run_monitor_experiment(t, method, opts);
    benchmark::DoNotOptimize(r.rmse);
    selection_seconds += r.selection_seconds;
    rmse = r.rmse;
  }
  state.counters["selection_s"] =
      selection_seconds / static_cast<double>(state.iterations());
  state.counters["rmse"] = rmse;
}

#define RESMON_TABLE4(name, dataset, method)                        \
  void name(benchmark::State& s) { run_method(s, dataset, method); } \
  BENCHMARK(name)->Unit(benchmark::kMillisecond)->Iterations(3)

RESMON_TABLE4(BM_Proposed_Alibaba, "alibaba",
              gaussian::MonitorMethod::kProposed);
RESMON_TABLE4(BM_MinDistance_Alibaba, "alibaba",
              gaussian::MonitorMethod::kMinimumDistance);
RESMON_TABLE4(BM_TopW_Alibaba, "alibaba", gaussian::MonitorMethod::kTopW);
RESMON_TABLE4(BM_TopWUpdate_Alibaba, "alibaba",
              gaussian::MonitorMethod::kTopWUpdate);
RESMON_TABLE4(BM_Batch_Alibaba, "alibaba",
              gaussian::MonitorMethod::kBatchSelection);

RESMON_TABLE4(BM_Proposed_Bitbrains, "bitbrains",
              gaussian::MonitorMethod::kProposed);
RESMON_TABLE4(BM_MinDistance_Bitbrains, "bitbrains",
              gaussian::MonitorMethod::kMinimumDistance);
RESMON_TABLE4(BM_TopW_Bitbrains, "bitbrains",
              gaussian::MonitorMethod::kTopW);
RESMON_TABLE4(BM_TopWUpdate_Bitbrains, "bitbrains",
              gaussian::MonitorMethod::kTopWUpdate);
RESMON_TABLE4(BM_Batch_Bitbrains, "bitbrains",
              gaussian::MonitorMethod::kBatchSelection);

RESMON_TABLE4(BM_Proposed_Google, "google",
              gaussian::MonitorMethod::kProposed);
RESMON_TABLE4(BM_MinDistance_Google, "google",
              gaussian::MonitorMethod::kMinimumDistance);
RESMON_TABLE4(BM_TopW_Google, "google", gaussian::MonitorMethod::kTopW);
RESMON_TABLE4(BM_TopWUpdate_Google, "google",
              gaussian::MonitorMethod::kTopWUpdate);
RESMON_TABLE4(BM_Batch_Google, "google",
              gaussian::MonitorMethod::kBatchSelection);

// Full pipeline step loop at several thread counts; counters expose the
// per-stage split so regressions in one stage are visible directly.
void BM_PipelineStep(benchmark::State& state) {
  const trace::InMemoryTrace& t = experiment_trace("alibaba");
  core::PipelineOptions opts;
  opts.num_clusters = 10;
  opts.forecaster = forecast::ForecasterKind::kHoltWinters;
  opts.schedule = {.initial_steps = 48, .retrain_interval = 24};
  opts.seed = 1;
  opts.num_threads = static_cast<std::size_t>(state.range(0));
  const std::size_t steps = 96;
  core::StageTimers timers;
  for (auto _ : state) {
    sim::Driver driver(t, opts);  // a private registry: gauges start at 0
    driver.run(steps);
    benchmark::DoNotOptimize(driver.pipeline().forecast_all(1));
    timers = driver.pipeline().stage_timers();
  }
  state.counters["collect_s"] = timers.collect_seconds;
  state.counters["cluster_s"] = timers.cluster_seconds;
  state.counters["forecast_s"] = timers.forecast_seconds;
}
BENCHMARK(BM_PipelineStep)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

}  // namespace

BENCHMARK_MAIN();
