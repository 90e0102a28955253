// Parallel-step microbenchmark: per-stage wall time of one in-process run,
// sim::Driver::step() feeding MonitoringPipeline::step_external()
// (collect / cluster / forecast, via StageTimers), at several thread
// counts on one seeded synthetic trace.
//
// The determinism contract makes the sweep directly comparable: every
// thread count computes bit-identical results (verified here against the
// serial run), so the only thing that changes is speed. The headline
// column is the speedup of the cluster + forecast stages — the two loops
// the paper's central node spends its time in — relative to the serial
// run. Each thread count runs three times and keeps the run whose cluster +
// forecast time is least, since timer noise only ever adds time; every run
// is checked against the serial forecasts. On a multi-core machine expect
// >= 2x at 4 threads for the default N = 2000, K = 10, ARIMA configuration.
//
// It also measures the zero-allocation contract: a steady-state window of
// step_external() slots (between two scheduled retrains) must perform ZERO
// heap allocations — counted by alloc_counter.cpp's operator new
// replacement — both for the benchmarked options and for one joint view
// clustered on a temporal window of 4 stored snapshots (the windowed
// feature path). After
// that window it times the query, forecast_all(1), and counts its heap
// allocations per call, which must stay within a small constant per view
// (call-local buffers, never per node). See docs/PERFORMANCE.md for how to
// read and enforce these properties.
//
// Flags: --nodes --steps --clusters --model --dataset --seed --full
// --threads (run only {1, <threads>} instead of the default {1, 2, 4, 8}
// sweep); --strict turns the speedup / allocation WARNings into exit 1;
// --json PATH merges the result rows into PATH (nothing is written
// without it), and --json-run LABEL also appends a timestamped history
// entry for this run; --csv, --metrics-out and --trace-out as in every
// harness. --help prints the usage and exits 0 without running; an
// unknown flag, or --json-run without --json, prints it and exits 2.
#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_util.hpp"

#include "sim/driver.hpp"

namespace {

using namespace resmon;

struct StageRun {
  core::StageTimers timers;
  Matrix forecast;  // h = 1 forecast after the last step, for verification
};

StageRun run_once(const trace::Trace& t, const core::PipelineOptions& base,
                  std::size_t threads, std::size_t steps,
                  obs::MetricsRegistry* metrics,
                  obs::TraceBuffer* trace_events) {
  core::PipelineOptions o = base;
  o.num_threads = threads;
  o.metrics = metrics;
  o.trace_events = trace_events;
  sim::Driver driver(t, o);
  // The sweep shares one registry, so the stage gauges already hold the
  // earlier rows: this run's split is the difference of two reads.
  const core::StageTimers before = driver.pipeline().stage_timers();
  driver.run(steps);
  const core::StageTimers after = driver.pipeline().stage_timers();
  return {{.collect_seconds = after.collect_seconds - before.collect_seconds,
           .cluster_seconds = after.cluster_seconds - before.cluster_seconds,
           .forecast_seconds =
               after.forecast_seconds - before.forecast_seconds},
          driver.pipeline().forecast_all(1)};
}

/// Heap allocations one forecast_all call may make per view: the call's
/// output and scratch, never anything per node.
constexpr double kQueryAllocsPerView = 16.0;

struct SteadyStats {
  std::uint64_t total_allocs = 0;
  std::size_t window_steps = 0;
  double query_ms = 0.0;           ///< median forecast_all(1) wall time
  double query_allocs = 0.0;       ///< heap allocations per forecast_all(1)
  std::size_t views = 0;
};

/// Drives a hand-fed pipeline through the first retrain, then
/// counts heap allocations over the steady slots strictly between retrains
/// (prebuilt messages, serial execution): the contract is zero. Then times
/// forecast_all(1) on the same pipeline and counts its allocations.
SteadyStats measure_steady_allocs(const trace::Trace& t,
                                  const core::PipelineOptions& base) {
  core::PipelineOptions o = base;
  o.num_threads = 1;
  o.metrics = nullptr;
  o.trace_events = nullptr;
  core::MonitoringPipeline p(t.num_nodes(), t.num_resources(), o);

  // Warm through the initial fit plus one post-fit slot (first update()
  // after a fit takes its scratch-slab reservations), then measure up to
  // the slot before the next scheduled retrain.
  const std::size_t warm_until = o.schedule.initial_steps + 2;
  const std::size_t window_end =
      o.schedule.initial_steps + o.schedule.retrain_interval - 1;
  const std::size_t n = t.num_nodes();
  const std::size_t d = t.num_resources();
  std::vector<std::vector<transport::MeasurementMessage>> slots(window_end);
  for (std::size_t s = 0; s < window_end; ++s) {
    slots[s].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots[s][i].node = i;
      slots[s][i].step = s;
      slots[s][i].values.resize(d);
      for (std::size_t r = 0; r < d; ++r) {
        slots[s][i].values[r] = t.value(i, s, r);
      }
    }
  }

  SteadyStats stats;
  for (std::size_t s = 0; s < window_end; ++s) {
    const std::uint64_t before = bench::allocations();
    p.step_external(slots[s]);
    if (s >= warm_until) {
      stats.total_allocs +=
          bench::allocations() - before;
      ++stats.window_steps;
    }
  }

  constexpr std::size_t kQueryCalls = 16;
  std::vector<double> query_ms;
  query_ms.reserve(kQueryCalls);
  std::uint64_t query_allocs = 0;
  for (std::size_t c = 0; c < kQueryCalls; ++c) {
    const std::uint64_t before = bench::allocations();
    const auto start = std::chrono::steady_clock::now();
    const Matrix forecast = p.forecast_all(1);
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    query_allocs += bench::allocations() - before;
    query_ms.push_back(took.count());
  }
  std::nth_element(query_ms.begin(), query_ms.begin() + kQueryCalls / 2,
                   query_ms.end());
  stats.query_ms = query_ms[kQueryCalls / 2];
  stats.query_allocs =
      static_cast<double>(query_allocs) / static_cast<double>(kQueryCalls);
  stats.views = o.cluster_per_resource ? d : 1;
  return stats;
}

}  // namespace

constexpr const char* kUsage =
    "usage: micro_parallel_step [--nodes N] [--steps N] [--clusters K]\n"
    "         [--model NAME] [--dataset NAME] [--seed S] [--full]\n"
    "         [--threads T] [--strict] [--json PATH [--json-run LABEL]]\n"
    "         [--csv PATH] [--metrics-out PATH] [--trace-out PATH]\n";

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  constexpr std::string_view kFlags[] = {
      "nodes", "steps", "clusters", "model", "dataset", "seed", "full",
      "threads", "strict", "json", "json-run", "csv", "metrics-out",
      "trace-out"};
  if (!bench::flags_ok(args, kFlags, kUsage)) {
    return 2;
  }
  bench::banner("micro_parallel_step",
                "Per-stage wall time of an in-process slot vs thread "
                "count (bit-identical results at every count)");

  trace::SyntheticProfile profile =
      bench::profile_from_args(args, args.get("dataset", "alibaba"));
  if (!args.has("nodes")) profile.num_nodes = 2000;
  if (!args.has("steps")) profile.num_steps = 48;
  const std::size_t steps = profile.num_steps;
  const trace::InMemoryTrace t =
      trace::generate(profile, args.get_int("seed", 1));

  core::PipelineOptions base;
  base.num_clusters =
      static_cast<std::size_t>(args.get_int("clusters", 10));
  base.forecaster = forecast::forecaster_kind_from_string(
      args.get("model", "arima"), "flag --model");
  // Retrain inside the benchmarked window so the forecast stage does real
  // model fitting, not just transient updates.
  base.schedule = {.initial_steps = 24, .retrain_interval = 12};
  base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (args.has("threads")) {
    const std::size_t requested = args.get_threads();
    thread_counts = {1};
    if (requested != 1) thread_counts.push_back(requested);
  }

  // Sinks for --metrics-out / --trace-out; series accumulate across the
  // whole thread sweep (each row's stage split is its own run's).
  obs::MetricsRegistry registry;
  obs::TraceBuffer trace_events;

  Table table({"threads", "collect_s", "cluster_s", "forecast_s",
               "cluster+forecast_s", "speedup", "identical"},
              4);
  bench::BenchJson sink("resmon-micro", "micro_parallel_step");
  constexpr std::size_t kRuns = 3;  // per thread count; the best one counts
  std::vector<double> serial_forecast;  // the first run's, bit for bit
  double serial_hot = 0.0;
  std::vector<std::pair<std::size_t, double>> speedups;
  for (const std::size_t threads : thread_counts) {
    core::StageTimers best;
    double hot = 0.0;
    bool identical = true;
    for (std::size_t r = 0; r < kRuns; ++r) {
      const StageRun run =
          run_once(t, base, threads, steps, &registry, &trace_events);
      if (serial_forecast.empty()) serial_forecast = run.forecast.data();
      identical = identical && run.forecast.data() == serial_forecast;
      const double run_hot =
          run.timers.cluster_seconds + run.timers.forecast_seconds;
      if (r == 0 || run_hot < hot) {
        best = run.timers;
        hot = run_hot;
      }
    }
    if (threads == thread_counts.front()) serial_hot = hot;
    const double speedup = serial_hot > 0.0 ? serial_hot / hot : 1.0;
    table.add_row({static_cast<double>(threads), best.collect_seconds,
                   best.cluster_seconds, best.forecast_seconds, hot, speedup,
                   identical ? 1.0 : 0.0});
    speedups.emplace_back(threads, speedup);
    sink.add("threads=" + std::to_string(threads),
             {{"collect_s", best.collect_seconds},
              {"cluster_s", best.cluster_seconds},
              {"forecast_s", best.forecast_seconds},
              {"cluster_forecast_speedup", speedup},
              {"identical", identical ? 1.0 : 0.0}});
  }
  bench::emit(table, args);

  // -- steady-state allocation contract ----------------------------------
  // Between retrains, step_external() must not touch the heap at all (see
  // docs/PERFORMANCE.md "Zero-allocation steady state").
  const std::size_t steady_need =
      base.schedule.initial_steps + base.schedule.retrain_interval - 1;
  bool steady_ok = true;
  if (steps >= steady_need) {
    const SteadyStats steady = measure_steady_allocs(t, base);
    core::PipelineOptions windowed = base;
    windowed.cluster_per_resource = false;
    windowed.temporal_window = 4;
    const SteadyStats joint = measure_steady_allocs(t, windowed);
    const auto per_step = [](const SteadyStats& s) {
      return s.window_steps > 0 ? static_cast<double>(s.total_allocs) /
                                      static_cast<double>(s.window_steps)
                                : 0.0;
    };
    sink.add("steady", {{"steady_allocs_per_step", per_step(steady)},
                        {"steady_window_steps",
                         static_cast<double>(steady.window_steps)}});
    sink.add("steady_joint_window4",
             {{"steady_allocs_per_step", per_step(joint)},
              {"steady_window_steps",
               static_cast<double>(joint.window_steps)}});
    const double query_budget =
        kQueryAllocsPerView * static_cast<double>(steady.views);
    sink.add("forecast_all", {{"forecast_all_ms", steady.query_ms},
                              {"forecast_all_allocs_per_call",
                               steady.query_allocs},
                              {"views", static_cast<double>(steady.views)}});
    std::cout << "\nsteady-state window: " << steady.window_steps
              << " steps, " << steady.total_allocs
              << " heap allocations (contract: 0)\n"
              << "steady-state window, joint view, temporal_window = 4: "
              << joint.window_steps << " steps, " << joint.total_allocs
              << " heap allocations (contract: 0)\n"
              << "forecast_all(1): " << steady.query_ms << " ms, "
              << steady.query_allocs << " heap allocations per call "
              << "(contract: <= " << query_budget << " for "
              << steady.views << " views)\n";
    if (steady.total_allocs + joint.total_allocs != 0) {
      steady_ok = false;
      std::cout << "WARNING: steady-state step path allocated "
                << steady.total_allocs + joint.total_allocs
                << " times; the zero-allocation "
                << "contract is broken (see docs/PERFORMANCE.md)\n";
    }
    if (steady.query_allocs > query_budget) {
      steady_ok = false;
      std::cout << "WARNING: forecast_all(1) allocated "
                << steady.query_allocs << " times per call, above "
                << query_budget << "; the query allocates per node "
                << "(see docs/PERFORMANCE.md)\n";
    }
  } else {
    std::cout << "\nsteady-state allocation check skipped: needs --steps >= "
              << steady_need << "\n";
  }

  // -- anti-scaling guard ------------------------------------------------
  // The sweep must never be slower with more threads; best-of-kRuns and
  // the 0.95 margin absorb timer jitter on loaded CI hosts (policy in
  // docs/PERFORMANCE.md).
  bool speedup_ok = true;
  for (std::size_t row = 1; row < speedups.size(); ++row) {
    if (speedups[row].second < 0.95) {
      speedup_ok = false;
      std::cout << "WARNING: cluster_forecast_speedup = "
                << speedups[row].second << " at " << speedups[row].first
                << " threads (< 0.95): parallel execution is slower than "
                   "serial (see docs/PERFORMANCE.md)\n";
    }
  }

  bench::json_flags(args).write(sink);
  bench::emit_observability(args, registry, &trace_events);
  std::cout << "\nspeedup = (cluster_s + forecast_s) at 1 thread / same at "
               "N threads, each the best of "
            << kRuns
            << " runs; identical = every run's h=1 forecasts bitwise equal "
               "to the serial run's (must always be 1).\n";
  if (args.has("strict") && (!steady_ok || !speedup_ok)) return 1;
  return 0;
}
