// Driver: the paper's whole system (Fig. 2) in one process, over a trace.
// Each slot the local nodes' policies decide what to send (§V-A, a
// collect::FleetCollector), the optional fault stage carries it
// (faultnet::FaultyLink), and the central node consumes what arrives
// through MonitoringPipeline::step_external(), the entry point a
// net::Controller also feeds.
#pragma once

#include <cstddef>
#include <memory>

#include "collect/fleet_collector.hpp"
#include "core/pipeline.hpp"
#include "faultnet/faulty_link.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"

namespace resmon::sim {

class Driver {
 public:
  /// The fleet runs PipelineOptions::policy at budget max_frequency over
  /// `trace` (non-owning), through a FaultyLink applying `faults` when it
  /// is non-empty. Series register in the pipeline's registry in the order
  /// pipeline, fault stage, collector; policy stepping uses its pool.
  Driver(const trace::Trace& trace, const core::PipelineOptions& options,
         const faultnet::FaultSpec& faults = {});

  /// One slot: the fleet produces slot current_step() and the fault stage
  /// carries it (a sim.produce span, added into the pipeline's
  /// stage="collect" gauge), then the pipeline consumes what arrives.
  /// Throws once done().
  void step();

  /// Up to `count` slots, stopping at the trace's end. The stage gauges
  /// keep counting: one run's split is the difference of two
  /// pipeline().stage_timers() reads.
  void run(std::size_t count);

  bool done() const {
    return pipeline_.current_step() >= trace_.num_steps();
  }

  const trace::Trace& trace() const { return trace_; }
  const core::MonitoringPipeline& pipeline() const { return pipeline_; }
  const collect::FleetCollector& collector() const { return collector_; }
  /// The fault stage; nullptr on a reliable uplink.
  const faultnet::FaultyLink* faults() const { return faults_.get(); }

 private:
  const trace::Trace& trace_;
  core::MonitoringPipeline pipeline_;
  std::unique_ptr<faultnet::FaultyLink> faults_;
  collect::FleetCollector collector_;
  obs::Gauge* stage_collect_;
};

}  // namespace resmon::sim
