#include "cluster/baselines.hpp"

#include <limits>

namespace resmon::cluster {

Matrix node_series(const trace::Trace& trace, std::size_t resource,
                   std::size_t steps) {
  RESMON_REQUIRE(resource < trace.num_resources() && steps <= trace.num_steps(),
                 "node_series: resource or steps beyond the trace");
  Matrix points(trace.num_nodes(), steps);
  for (std::size_t i = 0; i < trace.num_nodes(); ++i) {
    for (std::size_t t = 0; t < steps; ++t) {
      points(i, t) = trace.value(i, t, resource);
    }
  }
  return points;
}

StaticClustering::StaticClustering(const trace::Trace& trace,
                                   std::size_t resource, std::size_t k,
                                   std::uint64_t seed)
    : k_(k) {
  RESMON_REQUIRE(k >= 1 && k <= trace.num_nodes(),
                 "StaticClustering: k out of range");
  // Each node becomes one point whose coordinates are its entire series.
  const Matrix points = node_series(trace, resource, trace.num_steps());
  Rng rng(seed);
  assignment_ = kmeans(points, k, rng).assignment;
}

Clustering StaticClustering::at(const Matrix& snapshot) const {
  RESMON_REQUIRE(snapshot.rows() == assignment_.size(),
                 "StaticClustering: snapshot node count mismatch");
  Clustering c;
  c.assignment = assignment_;
  c.centroids = centroids_of(snapshot, assignment_, k_);
  return c;
}

MinimumDistanceClustering::MinimumDistanceClustering(std::size_t k,
                                                     std::uint64_t seed)
    : k_(k), rng_(seed) {
  RESMON_REQUIRE(k >= 1, "MinimumDistanceClustering: k must be positive");
}

Clustering MinimumDistanceClustering::at(const Matrix& snapshot) {
  const std::size_t n = snapshot.rows();
  RESMON_REQUIRE(k_ <= n, "MinimumDistanceClustering: k exceeds node count");

  // Sample K distinct nodes (partial Fisher-Yates over indices).
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  for (std::size_t j = 0; j < k_; ++j) {
    std::swap(ids[j], ids[j + rng_.index(n - j)]);
  }
  monitors_.assign(ids.begin(), ids.begin() + k_);

  Clustering c;
  c.centroids = Matrix(k_, snapshot.cols());
  for (std::size_t j = 0; j < k_; ++j) {
    for (std::size_t col = 0; col < snapshot.cols(); ++col) {
      c.centroids(j, col) = snapshot(monitors_[j], col);
    }
  }
  c.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    double best_d2 = std::numeric_limits<double>::max();
    for (std::size_t j = 0; j < k_; ++j) {
      const double d2 = squared_distance(c.centroids.row(j), snapshot.row(i));
      if (d2 < best_d2) {
        best_d2 = d2;
        best = j;
      }
    }
    c.assignment[i] = best;
  }
  return c;
}

}  // namespace resmon::cluster
