// The §VI-E train/test monitoring experiment (Fig. 12, Table IV).
//
// Setup: a training phase of `train_steps` during which every node reports
// (B = 1), followed by a testing phase of `test_steps` during which only K
// selected monitors report. Non-monitor values are estimated; each test
// step is scored by eq. (3) over all nodes and the phase by eq. (4).
//
// Methods:
//  * kProposed       — K-means on the training-phase series; the node
//                      closest to each centroid becomes the monitor; cluster
//                      members are estimated by their monitor's value.
//  * kMinimumDistance — cluster::MinimumDistanceClustering on the training
//                      series: K random monitors, each node estimated by
//                      its nearest monitor's value.
//  * kTopW / kTopWUpdate / kBatchSelection — Gaussian model from the
//                      training phase + the matching selection algorithm;
//                      non-monitors inferred by conditional-Gaussian
//                      regression.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace resmon::sim {

enum class MonitorMethod {
  kProposed,
  kMinimumDistance,
  kTopW,
  kTopWUpdate,
  kBatchSelection,
};

std::string to_string(MonitorMethod method);

struct MonitorExperimentOptions {
  std::size_t resource = 0;       ///< which resource column to monitor
  std::size_t num_monitors = 10;  ///< K
  std::size_t train_steps = 500;  ///< paper uses 500
  std::size_t test_steps = 500;   ///< paper uses 500
  std::uint64_t seed = 1;
};

struct MonitorExperimentResult {
  double rmse = 0.0;            ///< eq. (4) over the test phase
  double selection_seconds = 0.0;  ///< time to build model + pick monitors
  std::vector<std::size_t> monitors;
};

/// Run one method on one trace. Requires the trace to cover
/// train_steps + test_steps steps and more nodes than monitors.
MonitorExperimentResult run_monitor_experiment(
    const trace::Trace& trace, MonitorMethod method,
    const MonitorExperimentOptions& options);

}  // namespace resmon::sim
