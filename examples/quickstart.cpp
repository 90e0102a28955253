// Quickstart: the smallest useful resmon program.
//
// Generates a synthetic cluster workload, runs the full monitoring pipeline
// (adaptive transmission -> dynamic clustering -> forecasting) and prints
// the achieved bandwidth and forecast accuracy.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--nodes 60] [--steps 1500] [--b 0.3]
#include <iostream>

#include "common/cli.hpp"
#include "sim/driver.hpp"
#include "sim/evaluate.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace resmon;

  const Args args(argc, argv);

  // 1. A workload: 60 machines, ~5 days at 5-minute sampling.
  trace::SyntheticProfile profile = trace::google_profile();
  profile.num_nodes = static_cast<std::size_t>(args.get_int("nodes", 60));
  profile.num_steps = static_cast<std::size_t>(args.get_int("steps", 1500));
  const trace::InMemoryTrace workload =
      trace::generate(profile, /*seed=*/args.get_int("seed", 1));

  // 2. The monitoring pipeline with the paper's defaults: B = 0.3, K = 3,
  //    per-resource scalar clustering, sample-and-hold forecasting.
  core::PipelineOptions options;
  options.max_frequency = args.get_double("b", 0.3);
  options.num_clusters = static_cast<std::size_t>(args.get_int("k", 3));
  options.forecaster = forecast::forecaster_kind_from_string(
      args.get("model", "arima"), "flag --model");
  options.schedule = {.initial_steps = 400, .retrain_interval = 288};
  options.num_threads = args.get_threads();

  // The driver runs the local nodes' policies over the trace and feeds
  // every slot they send to the central node's pipeline.
  sim::Driver driver(workload, options);
  const core::MonitoringPipeline& pipeline = driver.pipeline();

  // 3. Feed the whole trace through the pipeline, scoring the forecasts
  //    against the trace: time-averaged RMSE (eq. (4)) for a few horizons.
  core::RmseAccumulator now, short_term, long_term;
  while (!driver.done()) {
    driver.step();
    const std::size_t t = pipeline.current_step() - 1;
    now.add(sim::rmse_at(pipeline, workload, 0));
    if (t + 5 < workload.num_steps()) {
      short_term.add(sim::rmse_at(pipeline, workload, 5));
    }
    if (t + 50 < workload.num_steps()) {
      long_term.add(sim::rmse_at(pipeline, workload, 50));
    }
  }

  // 4. Report.
  std::cout << "nodes: " << workload.num_nodes()
            << ", steps: " << workload.num_steps() << "\n";
  std::cout << "transmission budget B: " << options.max_frequency
            << ", actual frequency: "
            << driver.collector().average_actual_frequency() << "\n";
  std::cout << "bytes on the wire: " << driver.collector().bytes_sent()
            << " ("
            << 100.0 * driver.collector().average_actual_frequency()
            << "% of always-send)\n";
  std::cout << "RMSE  h=0  (collection only): " << now.value() << "\n";
  std::cout << "RMSE  h=5  (25 min ahead):    " << short_term.value() << "\n";
  std::cout << "RMSE  h=50 (~4 h ahead):      " << long_term.value() << "\n";
  return 0;
}
