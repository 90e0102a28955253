// MeasurementSource: where one node's per-slot measurement vector comes
// from.
//
// The pipeline has historically read measurements straight out of a
// trace::Trace; the host-collection backend (src/host) produces them by
// sampling procfs instead. This interface is the seam between the two: the
// resmon_agent slot loop drives any source the same way, so synthetic
// traces, live procfs sampling and recorded-series replay all feed the
// identical adaptive-transmission -> clustering -> forecasting path
// (DESIGN.md "Host collection").
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace resmon::collect {

/// One node's measurement stream. measurement(t) must be called with
/// consecutive t starting at 0; sources that sample live state are allowed
/// to block (pacing themselves to a wall-clock interval) and to mutate
/// internal counters, hence non-const.
class MeasurementSource {
 public:
  virtual ~MeasurementSource() = default;

  /// The node's d-dimensional measurement x_{i,t} for slot t.
  virtual std::vector<double> measurement(std::size_t t) = 0;
};

/// The classic source: node `node` of a trace::Trace. A host recording
/// replays through it too, as the one-node trace host::read_recording
/// returns.
class TraceSource final : public MeasurementSource {
 public:
  TraceSource(const trace::Trace& trace, std::size_t node)
      : trace_(trace), node_(node) {
    RESMON_REQUIRE(node < trace.num_nodes(),
                   "TraceSource: node out of range");
  }

  std::vector<double> measurement(std::size_t t) override {
    RESMON_REQUIRE(t < trace_.num_steps(),
                   "TraceSource: step beyond the end of the trace");
    return trace_.measurement(node_, t);
  }

 private:
  const trace::Trace& trace_;
  std::size_t node_;
};

}  // namespace resmon::collect
