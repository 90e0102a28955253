#include "cluster/dynamic_cluster.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace resmon::cluster {

ClusterHistory::ClusterHistory(std::size_t depth) : steps_(depth) {
  RESMON_REQUIRE(depth >= 1, "history depth must be at least 1");
}

HistoryStep& ClusterHistory::advance() {
  head_ = (head_ + depth() - 1) % depth();
  if (size_ < depth()) ++size_;
  return steps_[head_];
}

void ClusterHistory::push(const Matrix& values,
                          const Clustering& clustering) {
  const std::size_t k = clustering.centroids.rows();
  RESMON_REQUIRE(values.rows() == clustering.assignment.size(),
                 "ClusterHistory: snapshot/assignment size mismatch");
  RESMON_REQUIRE(values.cols() == clustering.centroids.cols(),
                 "ClusterHistory: snapshot/centroid dimension mismatch");
  RESMON_REQUIRE(empty() || (values.rows() == at(0).values.rows() &&
                              k == at(0).clustering.centroids.rows()),
                 "ClusterHistory: N or K changed between steps");
  for (const std::size_t j : clustering.assignment) {
    RESMON_REQUIRE(j < k, "ClusterHistory: cluster out of range");
  }
  // Copy-assign into the recycled step so its buffers keep their capacity.
  HistoryStep& step = advance();
  step.values = values;
  step.clustering = clustering;
}

std::size_t ClusterHistory::index(std::size_t age) const {
  RESMON_REQUIRE(age < size_, "history age out of range");
  return (head_ + age) % depth();
}

void reindex_weights_into(const std::vector<std::size_t>& fresh,
                          const ClusterHistory& history, std::size_t lookback,
                          std::size_t k, SimilarityKind kind,
                          ReindexScratch& scratch, Matrix& w) {
  RESMON_REQUIRE(lookback >= 1 && lookback < history.size(),
                 "reindex weights need 1 <= lookback < history size");
  const std::vector<std::size_t>& last = history.at(1).clustering.assignment;
  RESMON_REQUIRE(fresh.size() == last.size(),
                 "reindex weights: node count changed between steps");
  const std::size_t n = fresh.size();
  // Nodes that stayed in cluster j throughout the lookback: the
  // intersection term of eq. (10). K marks a node that moved; no past
  // assignment equals it, so it stays K.
  std::vector<std::size_t>& stayed = scratch.stayed;
  stayed.assign(last.begin(), last.end());
  for (std::size_t age = 2; age <= lookback; ++age) {
    const std::size_t* past = history.at(age).clustering.assignment.data();
    for (std::size_t i = 0; i < n; ++i) {
      stayed[i] = past[i] == stayed[i] ? stayed[i] : k;
    }
  }

  w.resize(k, k);
  for (std::size_t i = 0; i < n; ++i) {
    if (stayed[i] < k) w(fresh[i], stayed[i]) += 1.0;
  }
  if (kind == SimilarityKind::kJaccard) {
    // |C'_k intersect I_j| / |C'_k union I_j|.
    scratch.fresh_size.assign(k, 0.0);
    scratch.stayed_size.assign(k, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      scratch.fresh_size[fresh[i]] += 1.0;
      if (stayed[i] < k) scratch.stayed_size[stayed[i]] += 1.0;
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < k; ++j) {
        const double inter = w(kk, j);
        const double uni =
            scratch.fresh_size[kk] + scratch.stayed_size[j] - inter;
        w(kk, j) = uni > 0.0 ? inter / uni : 0.0;
      }
    }
  }
}

DynamicClusterTracker::DynamicClusterTracker(
    const DynamicClusterOptions& options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  RESMON_REQUIRE(options.k >= 1, "tracker needs at least one cluster");
  RESMON_REQUIRE(options.history_m >= 1, "M must be at least 1");
  if (options_.metrics != nullptr) {
    const obs::Labels labels = {{"view", options_.metrics_view}};
    obs::MetricsRegistry& reg = *options_.metrics;
    updates_total_ = &reg.counter("resmon_cluster_updates_total",
                                  "Clustering steps processed", labels);
    kmeans_iterations_total_ =
        &reg.counter("resmon_cluster_kmeans_iterations_total",
                     "Lloyd iterations of the best K-means restart", labels);
    reassignments_total_ = &reg.counter(
        "resmon_cluster_reassignments_total",
        "Nodes whose stable cluster index changed vs. the previous step",
        labels);
    match_weight_ = &reg.gauge(
        "resmon_cluster_match_weight",
        "Total Hungarian matching weight of the last re-index, eq. (11)",
        labels);
    empty_clusters_ = &reg.gauge(
        "resmon_cluster_empty_clusters",
        "Clusters with no members after the last update (0 unless the "
        "K-means empty-cluster repair is defeated)",
        labels);
  }
}

const Clustering& DynamicClusterTracker::update(ClusterHistory& history) {
  return update(history.at(0).values, history);
}

const Clustering& DynamicClusterTracker::update(const Matrix& features,
                                                ClusterHistory& history) {
  RESMON_REQUIRE(history.depth() >= options_.history_m + 1,
                 "history must hold at least M + 1 steps");
  HistoryStep& newest = history.at(0);
  RESMON_REQUIRE(features.rows() >= options_.k,
                 "need at least k points to cluster");
  RESMON_REQUIRE(features.rows() == newest.values.rows(),
                 "features/values row count mismatch");
  const std::size_t n = features.rows();
  const std::size_t k = options_.k;
  const bool has_past = history.size() > 1;
  if (has_past) {
    RESMON_REQUIRE(n == history.at(1).clustering.assignment.size(),
                   "node count changed between updates");
  }

  kmeans_into(features, k, rng_, options_.kmeans, kmeans_scratch_, raw_);

  // phi maps the raw K-means index k to the stable index j (eq. (11)).
  phi_.resize(k);
  if (!has_past || !options_.reindex) {
    for (std::size_t j = 0; j < k; ++j) phi_[j] = j;
    if (match_weight_ != nullptr) match_weight_->set(0.0);
  } else {
    reindex_weights_into(raw_.assignment, history,
                         std::min(options_.history_m, history.size() - 1), k,
                         options_.similarity, reindex_scratch_, w_);
    max_weight_assignment_into(w_, assign_scratch_, phi_);
    if (match_weight_ != nullptr) {
      match_weight_->set(assignment_value(w_, phi_));
    }
  }

  Clustering& fresh = newest.clustering;
  fresh.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    fresh.assignment[i] = phi_[raw_.assignment[i]];
  }
  // Report centroids in measurement space (eq. (1)); K-means' empty-cluster
  // repair guarantees every cluster has at least one member.
  centroids_of_into(newest.values, fresh.assignment, k, counts_scratch_,
                    fresh.centroids, &empty_scratch_);

  if (updates_total_ != nullptr) {
    updates_total_->inc();
    kmeans_iterations_total_->inc(raw_.iterations);
    empty_clusters_->set(static_cast<double>(std::count(
        empty_scratch_.begin(), empty_scratch_.end(), true)));
    if (has_past) {
      std::uint64_t moved = 0;
      const Clustering& prev = history.at(1).clustering;
      for (std::size_t i = 0; i < n; ++i) {
        if (fresh.assignment[i] != prev.assignment[i]) ++moved;
      }
      reassignments_total_->inc(moved);
    }
  }

  ++steps_;
  return fresh;
}

}  // namespace resmon::cluster
