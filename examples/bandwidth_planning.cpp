// Bandwidth planning: choose the telemetry budget B for a deployment.
//
// Sweeps the transmission-frequency constraint and reports the monitoring
// error (h=0) and short-horizon forecast error at each budget, together
// with the bytes each budget puts on the wire. The knee of this curve is
// how an operator would pick B (the paper lands on B = 0.3, Fig. 6).
//
// Run: ./build/examples/bandwidth_planning [--dataset alibaba|bitbrains|google]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace resmon;

  const Args args(argc, argv);
  trace::SyntheticProfile profile =
      trace::profile_by_name(args.get("dataset", "alibaba"));
  profile.num_nodes = static_cast<std::size_t>(args.get_int("nodes", 50));
  profile.num_steps = static_cast<std::size_t>(args.get_int("steps", 1200));
  const trace::InMemoryTrace fleet = trace::generate(profile, 5);

  Table table({"B", "actual freq", "MB sent", "RMSE h=0", "RMSE h=5"});
  for (const double b : {0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0}) {
    core::PipelineOptions options;
    options.max_frequency = b;
    options.num_clusters = 3;
    options.forecaster = forecast::ForecasterKind::kSampleHold;
    options.schedule = {.initial_steps = 200, .retrain_interval = 288};
    options.num_threads = args.get_threads();
    core::MonitoringPipeline pipeline(fleet, options);

    core::RmseAccumulator now, ahead;
    while (!pipeline.done()) {
      pipeline.step();
      now.add(pipeline.rmse_at(0));
      if (pipeline.current_step() - 1 + 5 < fleet.num_steps()) {
        ahead.add(pipeline.rmse_at(5));
      }
    }
    table.add_row({b, pipeline.collector().average_actual_frequency(),
                   static_cast<double>(
                       pipeline.collector().bytes_sent()) /
                       (1024.0 * 1024.0),
                   now.value(), ahead.value()});
  }

  std::cout << "=== telemetry budget sweep (" << profile.name << ", "
            << fleet.num_nodes() << " nodes, " << fleet.num_steps()
            << " steps) ===\n\n";
  table.print(std::cout);
  std::cout << "\nPick the smallest B where the error has flattened; the"
               " paper (and typically this sweep) lands near B = 0.3.\n";
  return 0;
}
