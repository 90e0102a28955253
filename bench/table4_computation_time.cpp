// Table IV — Computation time (monitor selection + model building) of each
// approach in the §VI-E setting: 100 nodes, 500 training steps, K = 10.
//
// Expected shape: Min-distance < Proposed < Top-W < Batch Selection <
// Top-W-Update. Absolute numbers depend on the machine; the ordering is the
// result (Top-W-Update re-evaluates the conditional variance of the whole
// fleet for every candidate at every pick).
//
// Each row reports the mean selection time (`selection_s`) and the test
// phase's eq. (4) RMSE (`rmse`). Per-stage timing of the monitoring
// pipeline itself lives in micro_parallel_step.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "sim/monitor_experiment.hpp"
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
                sim::MonitorMethod method) {
  const trace::InMemoryTrace& t = experiment_trace(dataset);
  sim::MonitorExperimentOptions opts;
  opts.num_monitors = 25;
  opts.train_steps = 500;
  opts.test_steps = 500;
  double selection_seconds = 0.0;
  double rmse = 0.0;
  for (auto _ : state) {
    const sim::MonitorExperimentResult r =
        sim::run_monitor_experiment(t, method, opts);
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

RESMON_TABLE4(BM_Proposed_Alibaba, "alibaba", sim::MonitorMethod::kProposed);
RESMON_TABLE4(BM_MinDistance_Alibaba, "alibaba",
              sim::MonitorMethod::kMinimumDistance);
RESMON_TABLE4(BM_TopW_Alibaba, "alibaba", sim::MonitorMethod::kTopW);
RESMON_TABLE4(BM_TopWUpdate_Alibaba, "alibaba",
              sim::MonitorMethod::kTopWUpdate);
RESMON_TABLE4(BM_Batch_Alibaba, "alibaba", sim::MonitorMethod::kBatchSelection);

RESMON_TABLE4(BM_Proposed_Bitbrains, "bitbrains",
              sim::MonitorMethod::kProposed);
RESMON_TABLE4(BM_MinDistance_Bitbrains, "bitbrains",
              sim::MonitorMethod::kMinimumDistance);
RESMON_TABLE4(BM_TopW_Bitbrains, "bitbrains", sim::MonitorMethod::kTopW);
RESMON_TABLE4(BM_TopWUpdate_Bitbrains, "bitbrains",
              sim::MonitorMethod::kTopWUpdate);
RESMON_TABLE4(BM_Batch_Bitbrains, "bitbrains",
              sim::MonitorMethod::kBatchSelection);

RESMON_TABLE4(BM_Proposed_Google, "google", sim::MonitorMethod::kProposed);
RESMON_TABLE4(BM_MinDistance_Google, "google",
              sim::MonitorMethod::kMinimumDistance);
RESMON_TABLE4(BM_TopW_Google, "google", sim::MonitorMethod::kTopW);
RESMON_TABLE4(BM_TopWUpdate_Google, "google", sim::MonitorMethod::kTopWUpdate);
RESMON_TABLE4(BM_Batch_Google, "google", sim::MonitorMethod::kBatchSelection);

}  // namespace

BENCHMARK_MAIN();
