// Shared driver for the clustering-method comparisons (Figs. 6, 7, 10, 11):
// runs the collection stage once per configuration and evaluates the
// proposed dynamic clustering against the static-offline and
// minimum-distance baselines on the same stored measurements.
#pragma once

#include <vector>

#include "cluster/baselines.hpp"
#include "cluster/dynamic_cluster.hpp"
#include "collect/fleet_collector.hpp"
#include "core/metrics.hpp"
#include "sim/evaluate.hpp"
#include "trace/trace.hpp"

namespace resmon::bench {

struct ClusteringSweepResult {
  // Time-averaged intermediate RMSE per resource, per method.
  std::vector<double> proposed;
  std::vector<double> min_distance;
  std::vector<double> statik;
};

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

  const cluster::DynamicClusterOptions options{.k = k, .similarity = sim};
  std::vector<cluster::DynamicClusterTracker> trackers;
  std::vector<cluster::ClusterHistory> histories(
      d, cluster::ClusterHistory(options.history_m + 1));
  std::vector<cluster::StaticClustering> statics;
  std::vector<cluster::MinimumDistanceClustering> mindists;
  for (std::size_t r = 0; r < d; ++r) {
    trackers.emplace_back(options, seed + r);
    statics.emplace_back(t, r, k, seed + 100 + r);
    mindists.emplace_back(k, seed + 200 + r);
  }

  transport::CentralStore store(t.num_nodes(), d);
  std::vector<core::RmseAccumulator> acc_prop(d), acc_min(d), acc_stat(d);
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    for (const auto& m : fleet.step(step)) store.apply(m);
    for (std::size_t r = 0; r < d; ++r) {
      Matrix& snapshot = histories[r].advance().values;
      snapshot.resize(t.num_nodes(), 1);
      for (std::size_t i = 0; i < t.num_nodes(); ++i) {
        snapshot(i, 0) = store.stored(i)[r];
      }
      const Matrix truth = sim::truth_at(t, step, r, 1);
      acc_prop[r].add(core::intermediate_rmse_step(
          truth, trackers[r].update(histories[r])));
      acc_min[r].add(
          core::intermediate_rmse_step(truth, mindists[r].at(snapshot)));
      acc_stat[r].add(
          core::intermediate_rmse_step(truth, statics[r].at(snapshot)));
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
