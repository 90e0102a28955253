// Anomaly detection from the monitoring pipeline's cluster structure.
//
// The paper motivates forecasting with "resource planning/allocation and
// anomaly detection". This example injects utilization anomalies (a machine
// with pegged CPU and a flatlined machine) into a synthetic fleet and flags
// machines that persistently stop fitting the cluster structure: a healthy
// machine sits near its cluster's centroid (that is exactly what makes K
// centroids a good compressed representation of N nodes); a pegged or dead
// machine drifts far from every centroid and stays there.
//
// Run: ./build/examples/anomaly_detection [--nodes 40]
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "trace/synthetic.hpp"

namespace {

constexpr std::size_t kAnomalyStart = 700;

/// Inject anomalies: node `hot` runs away (CPU and memory pegged), node
/// `dead` flatlines, both beginning at kAnomalyStart.
resmon::trace::InMemoryTrace with_anomalies(
    const resmon::trace::SyntheticProfile& profile, std::size_t hot,
    std::size_t dead, std::uint64_t seed) {
  using namespace resmon::trace;
  InMemoryTrace t = generate(profile, seed);
  for (std::size_t step = kAnomalyStart; step < t.num_steps(); ++step) {
    t.set_value(hot, step, kCpu, 0.98);
    t.set_value(hot, step, kMemory, 0.97);
    t.set_value(dead, step, kCpu, 0.02);
    t.set_value(dead, step, kMemory, 0.02);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;

  const Args args(argc, argv);
  trace::SyntheticProfile profile = trace::google_profile();
  profile.num_nodes = static_cast<std::size_t>(args.get_int("nodes", 80));
  profile.num_steps = 1100;

  const std::size_t hot = 3;
  const std::size_t dead = 17;
  const trace::InMemoryTrace fleet = with_anomalies(profile, hot, dead, 11);

  core::PipelineOptions options;
  options.max_frequency = 0.3;
  options.num_clusters = 6;
  options.forecaster = forecast::ForecasterKind::kSampleHold;
  options.schedule = {.initial_steps = 300, .retrain_interval = 288};
  options.num_threads = args.get_threads();
  core::MonitoringPipeline pipeline(fleet, options);

  // Detection rule: flag a node when its distance to its own cluster
  // centroid (summed over resources) exceeds a fleet-relative threshold
  // for several consecutive steps. Persistence separates anomalies from
  // ordinary utilization spikes; the fleet-median baseline adapts the
  // threshold to the workload's own noise level.
  constexpr std::size_t kScoreStart = 400;   // after warm-up
  constexpr double kRelativeFactor = 4.0;    // vs fleet median distance
  constexpr double kDistanceFloor = 0.25;
  constexpr std::size_t kPersistence = 6;    // consecutive steps

  const std::size_t n = fleet.num_nodes();
  std::vector<std::size_t> first_flagged(n, 0);
  std::vector<std::size_t> streak(n, 0);
  std::vector<double> distance(n, 0.0);
  std::vector<double> peak_distance(n, 0.0);

  for (std::size_t t = 0; t < fleet.num_steps(); ++t) {
    pipeline.step();
    if (t < kScoreStart) continue;

    // Distance of each node's stored measurement to the nearest centroid,
    // summed over the per-resource views. A singleton cluster containing
    // only the node itself does not count as structure the node fits
    // into, so a runaway machine cannot hide by earning a private
    // centroid.
    const Matrix z = pipeline.forecast_all(0);
    std::fill(distance.begin(), distance.end(), 0.0);
    for (std::size_t r = 0; r < pipeline.num_views(); ++r) {
      const cluster::Clustering& c = pipeline.history(r).at(0).clustering;
      std::vector<std::size_t> cluster_size(options.num_clusters, 0);
      for (std::size_t i = 0; i < n; ++i) ++cluster_size[c.assignment[i]];
      for (std::size_t i = 0; i < n; ++i) {
        double nearest = 1.0;
        for (std::size_t j = 0; j < options.num_clusters; ++j) {
          // A singleton cluster containing only node i itself does not
          // count as structure it fits into.
          if (c.assignment[i] == j && cluster_size[j] <= 1) continue;
          nearest =
              std::min(nearest, std::fabs(z(i, r) - c.centroids(j, 0)));
        }
        distance[i] += nearest;
      }
    }
    std::vector<double> sorted = distance;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double threshold = std::max(
        kDistanceFloor, kRelativeFactor * sorted[sorted.size() / 2]);
    for (std::size_t i = 0; i < n; ++i) {
      peak_distance[i] = std::max(peak_distance[i], distance[i]);
      streak[i] = distance[i] > threshold ? streak[i] + 1 : 0;
      if (streak[i] >= kPersistence && first_flagged[i] == 0) {
        first_flagged[i] = t;
      }
    }
  }

  Table table({"node", "peak centroid distance", "status",
               "flagged at step"});
  for (std::size_t i = 0; i < n; ++i) {
    if (first_flagged[i] == 0) continue;
    std::string status = "anomalous";
    if (i == hot) status += " (injected: runaway, CPU+mem pegged)";
    if (i == dead) status += " (injected: flatlined)";
    std::string label = "m";  // two appends: GCC 12 -Wrestrict misfires
    label += std::to_string(i);
    table.add_row({std::move(label), peak_distance[i], status,
                   static_cast<double>(first_flagged[i])});
  }

  std::cout << "=== cluster-outlier anomaly report ===\n";
  std::cout << "anomalies injected at step " << kAnomalyStart << " into m"
            << hot << " (hot) and m" << dead << " (dead)\n\n";
  if (table.num_rows() == 0) {
    std::cout << "no anomalies detected\n";
  } else {
    table.print(std::cout);
  }

  const bool caught_hot = first_flagged[hot] >= kAnomalyStart;
  const bool caught_dead = first_flagged[dead] >= kAnomalyStart;
  std::size_t false_positives = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (first_flagged[i] != 0 && i != hot && i != dead) ++false_positives;
  }
  std::cout << "\ninjected anomalies detected: "
            << (caught_hot ? 1 : 0) + (caught_dead ? 1 : 0)
            << "/2, false positives: " << false_positives << "\n";
  return caught_hot && caught_dead ? 0 : 1;
}
