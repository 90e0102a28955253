// Forecast-driven task placement — the paper's future-work direction
// ("integration of our approach with resource allocation") simulated end to
// end.
//
// A stream of tasks arrives at a scheduler; each task occupies CPU on its
// host for a fixed duration. Three placement policies are compared on the
// same arrival sequence:
//   * random            — place on a uniformly random machine;
//   * reactive          — place on the machine with the lowest *stored*
//                         utilization (the controller's current view);
//   * forecast (ours)   — place on the machine with the lowest *forecast*
//                         utilization at the task's mid-lifetime.
// The metric is the number of overload step-events (host above the overload
// threshold while running placed tasks) and the average headroom violation.
//
// Run: ./build/examples/scheduler_simulation [--nodes 60] [--tasks 400]
#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "sim/driver.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace resmon;

constexpr double kTaskLoad = 0.12;       // CPU each placed task adds
constexpr std::size_t kTaskLife = 24;    // steps a task stays resident
constexpr double kOverload = 0.95;       // utilization considered overload

struct PolicyState {
  std::string name;
  // Remaining lifetime (in steps) of every task resident on each node.
  std::vector<std::vector<std::size_t>> tasks;  // [node][task]
  std::size_t overload_events = 0;
  double violation_sum = 0.0;

  explicit PolicyState(std::string n, std::size_t nodes)
      : name(std::move(n)), tasks(nodes) {}

  double extra_load(std::size_t node) const {
    return kTaskLoad * static_cast<double>(tasks[node].size());
  }

  void place(std::size_t node) { tasks[node].push_back(kTaskLife); }

  void tick(const trace::Trace& t, std::size_t step) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].empty()) continue;
      const double total = t.value(i, step, trace::kCpu) + extra_load(i);
      if (total > kOverload) {
        ++overload_events;
        violation_sum += total - kOverload;
      }
      // Age and expire resident tasks.
      for (auto& remaining : tasks[i]) --remaining;
      std::erase(tasks[i], 0u);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);

  trace::SyntheticProfile profile = trace::alibaba_profile();
  profile.num_nodes = static_cast<std::size_t>(args.get_int("nodes", 60));
  profile.num_steps = 2000;
  const trace::InMemoryTrace fleet = trace::generate(profile, 17);
  const std::size_t total_tasks =
      static_cast<std::size_t>(args.get_int("tasks", 400));

  core::PipelineOptions options;
  options.max_frequency = 0.3;
  options.num_clusters = 3;
  options.forecaster = forecast::ForecasterKind::kArima;
  options.schedule = {.initial_steps = 400, .retrain_interval = 288};
  options.num_threads = args.get_threads();
  sim::Driver driver(fleet, options);
  const core::MonitoringPipeline& pipeline = driver.pipeline();

  Rng arrivals(99);
  PolicyState random_policy("random", fleet.num_nodes());
  PolicyState reactive_policy("reactive (stored z)", fleet.num_nodes());
  PolicyState forecast_policy("forecast (ours)", fleet.num_nodes());

  const std::size_t warmup = 450;
  const double arrival_rate =
      static_cast<double>(total_tasks) /
      static_cast<double>(fleet.num_steps() - warmup);

  std::size_t placed = 0;
  for (std::size_t t = 0; t < fleet.num_steps(); ++t) {
    driver.step();
    if (t < warmup) continue;

    if (arrivals.bernoulli(std::min(1.0, arrival_rate)) &&
        placed < total_tasks) {
      ++placed;
      // random
      random_policy.place(arrivals.index(fleet.num_nodes()));

      // reactive: lowest stored CPU + already-placed extra load
      const Matrix z = pipeline.forecast_all(0);
      std::size_t best_reactive = 0;
      double best_reactive_load = 1e9;
      for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
        const double load =
            z(i, trace::kCpu) + reactive_policy.extra_load(i);
        if (load < best_reactive_load) {
          best_reactive_load = load;
          best_reactive = i;
        }
      }
      reactive_policy.place(best_reactive);

      // forecast: lowest forecast CPU at mid-lifetime + extra load
      const Matrix f = pipeline.forecast_all(kTaskLife / 2);
      std::size_t best_forecast = 0;
      double best_forecast_load = 1e9;
      for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
        const double load =
            f(i, trace::kCpu) + forecast_policy.extra_load(i);
        if (load < best_forecast_load) {
          best_forecast_load = load;
          best_forecast = i;
        }
      }
      forecast_policy.place(best_forecast);
    }

    random_policy.tick(fleet, t);
    reactive_policy.tick(fleet, t);
    forecast_policy.tick(fleet, t);
  }

  Table table({"placement policy", "overload step-events",
               "total headroom violation"});
  for (const PolicyState* p :
       {&random_policy, &reactive_policy, &forecast_policy}) {
    table.add_row({p->name, static_cast<double>(p->overload_events),
                   p->violation_sum});
  }

  std::cout << "=== forecast-driven scheduling (" << placed
            << " tasks, load " << kTaskLoad << " x " << kTaskLife
            << " steps) ===\n\n";
  table.print(std::cout);
  std::cout << "\nForecast-based placement should overload machines less "
               "often than reactive placement, which in turn beats "
               "random.\n";

  return forecast_policy.overload_events <= reactive_policy.overload_events
             ? 0
             : 1;
}
