// Datacenter monitoring: the paper's motivating scenario end-to-end.
//
// A controller monitors a fleet under a strict telemetry budget and uses
// the forecasts for capacity planning: every "hour" it reports the cluster
// state and predicts which machines will have headroom for new work in 30
// minutes, the way a scheduler would pick placement targets.
//
// Run: ./build/examples/datacenter_monitoring [--nodes 80] [--hours 18]
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/driver.hpp"
#include "sim/evaluate.hpp"
#include "sim/report.hpp"
#include "trace/synthetic.hpp"

namespace {

/// Indices of the `count` nodes with the lowest predicted CPU utilization.
std::vector<std::size_t> placement_targets(const resmon::Matrix& forecast,
                                           std::size_t count) {
  std::vector<std::size_t> order(forecast.rows());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return forecast(a, resmon::trace::kCpu) < forecast(b, resmon::trace::kCpu);
  });
  order.resize(std::min(count, order.size()));
  return order;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;

  const Args args(argc, argv);
  const std::size_t hours = static_cast<std::size_t>(args.get_int("hours", 18));
  constexpr std::size_t kStepsPerHour = 12;  // 5-minute sampling

  trace::SyntheticProfile profile = trace::alibaba_profile();
  profile.num_nodes = static_cast<std::size_t>(args.get_int("nodes", 80));
  profile.num_steps = (hours + 2) * kStepsPerHour + 400;
  profile.diurnal_period = 288.0;
  const trace::InMemoryTrace fleet = trace::generate(profile, 7);

  core::PipelineOptions options;
  options.max_frequency = args.get_double("b", 0.3);
  options.num_clusters = 3;
  options.forecaster = forecast::ForecasterKind::kArima;
  options.schedule = {.initial_steps = 300, .retrain_interval = 288};
  options.num_threads = args.get_threads();
  sim::Driver driver(fleet, options);
  const core::MonitoringPipeline& pipeline = driver.pipeline();

  // Warm up through the initial data-collection phase.
  driver.run(400);

  Table report({"hour", "avg CPU", "avg Mem", "RMSE(h=0)", "RMSE(h=6)",
                "top placement targets"});
  for (std::size_t hour = 0; hour < hours; ++hour) {
    driver.run(kStepsPerHour);
    const std::size_t t = pipeline.current_step() - 1;

    // Current cluster-wide utilization from the controller's stored view.
    const Matrix z = pipeline.forecast_all(0);
    double cpu = 0.0, mem = 0.0;
    for (std::size_t i = 0; i < fleet.num_nodes(); ++i) {
      cpu += z(i, trace::kCpu);
      mem += z(i, trace::kMemory);
    }
    cpu /= static_cast<double>(fleet.num_nodes());
    mem /= static_cast<double>(fleet.num_nodes());

    // 30-minute-ahead forecast drives placement.
    const Matrix ahead = pipeline.forecast_all(6);
    std::string targets;
    for (const std::size_t node : placement_targets(ahead, 3)) {
      if (!targets.empty()) targets += ", ";
      targets += 'm';  // two appends: GCC 12 -Wrestrict misfires on "m" +
      targets += std::to_string(node);
    }

    const double rmse6 =
        t + 6 < fleet.num_steps() ? sim::rmse_at(pipeline, fleet, 6) : 0.0;
    report.add_row({static_cast<double>(hour + 1), cpu, mem,
                    sim::rmse_at(pipeline, fleet, 0), rmse6, targets});
  }

  std::cout << "=== datacenter monitoring report ===\n";
  std::cout << "fleet: " << fleet.num_nodes() << " machines, budget B = "
            << options.max_frequency << " (actual "
            << std::setprecision(3)
            << driver.collector().average_actual_frequency() << ")\n\n";
  report.print(std::cout);
  std::cout << "\nA scheduler would place new tasks on the listed machines:"
               " they are forecast to have the most CPU headroom in 30"
               " minutes.\n\n";
  sim::make_report(driver).print(std::cout);
  return 0;
}
