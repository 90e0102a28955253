// Clustering baselines used in the paper's evaluation (§VI-C2, §VI-D2).
//
// * StaticClustering — an *offline* baseline: K-means over each node's
//   entire time series (assumed known in advance), yielding one fixed
//   cluster assignment for all time steps.
// * MinimumDistanceClustering — at each time step, K randomly selected
//   nodes act as "centroids" and the remaining nodes are mapped to the
//   nearest one; represents random-monitor approaches [6]-[10].
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/dynamic_cluster.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace resmon::cluster {

/// The N x `steps` matrix of one resource: row i is node i's series over
/// steps [0, steps). Requires resource < num_resources() and steps <=
/// num_steps().
Matrix node_series(const trace::Trace& trace, std::size_t resource,
                   std::size_t steps);

/// Offline baseline: nodes grouped once by K-means over their full series
/// of one resource. `at()` re-derives the measurement-space centroids for a
/// given snapshot while keeping the assignment fixed.
class StaticClustering {
 public:
  /// Cluster the full `resource` series of every node in `trace`.
  StaticClustering(const trace::Trace& trace, std::size_t resource,
                   std::size_t k, std::uint64_t seed);

  std::size_t k() const { return k_; }
  const std::vector<std::size_t>& assignment() const { return assignment_; }

  /// Clustering for the given snapshot (n x d): fixed assignment, centroids
  /// recomputed as the member means of the snapshot rows. Clusters that are
  /// empty in the static assignment keep a zero centroid.
  Clustering at(const Matrix& snapshot) const;

 private:
  std::size_t k_;
  std::vector<std::size_t> assignment_;
};

/// Random-monitor baseline: each call to at() picks K distinct random nodes,
/// uses their snapshot rows as centroids, and assigns every node to the
/// nearest selected node.
class MinimumDistanceClustering {
 public:
  MinimumDistanceClustering(std::size_t k, std::uint64_t seed);

  std::size_t k() const { return k_; }

  /// Produce this step's random-monitor clustering of the snapshot rows.
  Clustering at(const Matrix& snapshot);

  /// The K node ids the last at() picked; monitors()[j] is centroid j.
  const std::vector<std::size_t>& monitors() const { return monitors_; }

 private:
  std::size_t k_;
  Rng rng_;
  std::vector<std::size_t> monitors_;
};

}  // namespace resmon::cluster
