// Operator-facing snapshot of a running sim::Driver: what the controller
// currently believes about the fleet, what the fleet's uplink costs, and
// how its models are doing. This is the structure a dashboard or an alerting
// rule would consume.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/driver.hpp"

namespace resmon::sim {

/// State of one cluster in one clustering view.
struct ClusterSummary {
  std::size_t view = 0;     ///< resource index (per-resource clustering)
  std::size_t cluster = 0;  ///< j
  std::size_t size = 0;     ///< |C_{j,t}|
  double centroid = 0.0;    ///< c_{j,t} (first dimension of the view)
  double forecast_h1 = 0.0; ///< model's 1-step-ahead centroid forecast
  std::string model;        ///< forecaster name
  std::size_t fits = 0;     ///< retrainings completed
};

/// Full snapshot of the monitoring system.
struct MonitoringReport {
  std::size_t step = 0;           ///< last processed time step
  std::size_t num_nodes = 0;
  double average_frequency = 0.0; ///< fleet-average transmission frequency
  std::uint64_t bytes_sent = 0;   ///< uplink bytes so far
  std::uint64_t messages_dropped = 0;
  std::vector<ClusterSummary> clusters;

  /// Render as an aligned text block.
  void print(std::ostream& os) const;
};

/// Build a report from the driver's current state. Requires at least one
/// completed step (clustering available).
MonitoringReport make_report(const Driver& driver);

}  // namespace resmon::sim
