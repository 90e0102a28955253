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
#include <limits>
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

  /// Dimension d of every vector measurement() returns.
  virtual std::size_t num_resources() const = 0;

  /// Number of slots this source can serve, or unbounded() for sources
  /// that can sample forever (live procfs).
  virtual std::size_t num_steps() const { return unbounded(); }

  /// The node's d-dimensional measurement x_{i,t} for slot t.
  virtual std::vector<double> measurement(std::size_t t) = 0;

  static constexpr std::size_t unbounded() {
    return std::numeric_limits<std::size_t>::max();
  }
};

/// The classic source: node `node` of a trace::Trace.
class TraceSource final : public MeasurementSource {
 public:
  TraceSource(const trace::Trace& trace, std::size_t node)
      : trace_(trace), node_(node) {
    RESMON_REQUIRE(node < trace.num_nodes(),
                   "TraceSource: node out of range");
  }

  std::size_t num_resources() const override {
    return trace_.num_resources();
  }
  std::size_t num_steps() const override { return trace_.num_steps(); }
  std::vector<double> measurement(std::size_t t) override {
    return trace_.measurement(node_, t);
  }

 private:
  const trace::Trace& trace_;
  std::size_t node_;
};

}  // namespace resmon::collect
