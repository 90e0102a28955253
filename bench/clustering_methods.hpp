// Shared driver for the clustering-method comparisons (Figs. 6, 7, 10, 11):
// runs the collection stage once per configuration and evaluates the
// proposed dynamic clustering against the static-offline and
// minimum-distance baselines on the same stored measurements.
#pragma once

#include <cmath>
#include <vector>

#include "cluster/baselines.hpp"
#include "cluster/dynamic_cluster.hpp"
#include "collect/fleet_collector.hpp"
#include "core/metrics.hpp"
#include "trace/trace.hpp"

namespace resmon::bench {

struct ClusteringSweepResult {
  // Time-averaged intermediate RMSE per resource, per method.
  std::vector<double> proposed;
  std::vector<double> min_distance;
  std::vector<double> statik;
};

/// Per-resource intermediate RMSE (truth vs assigned centroid) at one step.
inline double intermediate_at(const trace::Trace& t, std::size_t step,
                              std::size_t resource,
                              const cluster::Clustering& c) {
  double se = 0.0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    const double err =
        t.value(i, step, resource) - c.centroids(c.assignment[i], 0);
    se += err * err;
  }
  return std::sqrt(se / static_cast<double>(t.num_nodes()));
}

/// Run the three clustering methods over the whole trace with transmission
/// budget `b` and `k` clusters. All methods see the same B-constrained
/// stored measurements; the static baseline additionally sees the full
/// (offline) series for its one-time clustering, as in the paper.
inline ClusteringSweepResult clustering_sweep(const trace::Trace& t,
                                              double b, std::size_t k,
                                              std::uint64_t seed,
                                              cluster::SimilarityKind sim =
                                                  cluster::SimilarityKind::
                                                      kIntersection) {
  const std::size_t d = t.num_resources();

  collect::FleetCollector fleet(
      t, collect::make_policy_factory(collect::PolicyKind::kAdaptive, b));

  std::vector<cluster::DynamicClusterTracker> trackers;
  std::vector<cluster::StaticClustering> statics;
  std::vector<cluster::MinimumDistanceClustering> mindists;
  for (std::size_t r = 0; r < d; ++r) {
    trackers.emplace_back(
        cluster::DynamicClusterOptions{.k = k, .similarity = sim},
        seed + r);
    statics.emplace_back(t, r, k, seed + 100 + r);
    mindists.emplace_back(k, seed + 200 + r);
  }

  transport::CentralStore store(t.num_nodes(), d);
  std::vector<core::RmseAccumulator> acc_prop(d), acc_min(d), acc_stat(d);
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    for (const auto& m : fleet.step(step)) store.apply(m);
    for (std::size_t r = 0; r < d; ++r) {
      Matrix snapshot(t.num_nodes(), 1);
      for (std::size_t i = 0; i < t.num_nodes(); ++i) {
        snapshot(i, 0) = store.stored(i)[r];
      }
      acc_prop[r].add(
          intermediate_at(t, step, r, trackers[r].update(snapshot)));
      acc_min[r].add(
          intermediate_at(t, step, r, mindists[r].at(snapshot)));
      acc_stat[r].add(
          intermediate_at(t, step, r, statics[r].at(snapshot)));
    }
  }

  ClusteringSweepResult out;
  for (std::size_t r = 0; r < d; ++r) {
    out.proposed.push_back(acc_prop[r].value());
    out.min_distance.push_back(acc_min[r].value());
    out.statik.push_back(acc_stat[r].value());
  }
  return out;
}

}  // namespace resmon::bench
