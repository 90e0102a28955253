#include "sim/driver.hpp"

#include <functional>
#include <vector>

#include "collect/adaptive_transmitter.hpp"
#include "obs/trace_log.hpp"

namespace resmon::sim {
namespace {

std::function<std::unique_ptr<collect::TransmitPolicy>()> make_policies(
    const core::PipelineOptions& options, obs::MetricsRegistry& metrics) {
  return collect::make_policy_factory(options.policy, options.max_frequency,
                                      {.metrics = &metrics});
}

}  // namespace

Driver::Driver(const trace::Trace& trace,
               const core::PipelineOptions& options,
               const faultnet::FaultSpec& faults)
    : trace_(trace),
      pipeline_(trace.num_nodes(), trace.num_resources(), options),
      faults_(faults.empty() ? nullptr
                             : std::make_unique<faultnet::FaultyLink>(
                                   faults, &pipeline_.metrics())),
      collector_(trace, make_policies(options, pipeline_.metrics()),
                 &pipeline_.metrics()),
      // Registered by the pipeline; the registry returns the same series.
      stage_collect_(&pipeline_.metrics().gauge(
          "resmon_pipeline_stage_seconds", "", {{"stage", "collect"}})) {}

void Driver::step() {
  RESMON_REQUIRE(!done(), "driver already consumed the whole trace");
  obs::ScopedSpan produce(pipeline_.options().trace_events, "sim.produce",
                          stage_collect_);
  std::span<const transport::MeasurementMessage> slot =
      collector_.step(pipeline_.current_step());
  std::vector<transport::MeasurementMessage> arrived;
  if (faults_ != nullptr) {
    for (const transport::MeasurementMessage& m : slot) faults_->send(m);
    arrived = faults_->drain();
    slot = arrived;
  }
  produce.stop();
  pipeline_.step_external(slot);
}

void Driver::run(std::size_t count) {
  for (std::size_t i = 0; i < count && !done(); ++i) step();
}

}  // namespace resmon::sim
