#include "cluster/dynamic_cluster.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/kernels.hpp"

namespace resmon::cluster {

DynamicClusterTracker::DynamicClusterTracker(
    const DynamicClusterOptions& options, std::uint64_t seed)
    : options_(options),
      rng_(seed),
      ring_(options.history_m + 1) {
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

void DynamicClusterTracker::similarity_into(
    const std::vector<std::size_t>& fresh_assignment, std::size_t n) {
  const std::size_t k = options_.k;
  // Nodes that stayed in cluster j throughout the last min(M, t-1) steps:
  // the intersection term of eq. (10).
  const std::size_t lookback = std::min(options_.history_m, ring_size_);
  in_all_.assign(n * k, 1);
  for (std::size_t m = 0; m < lookback; ++m) {
    const Clustering& past = history(m);
    kern::history_mask(past.assignment.data(), k, 0, n, in_all_.data());
  }

  w_.resize(k, k);
  if (options_.similarity == SimilarityKind::kIntersection) {
    // Adds mask-as-0.0/1.0 unconditionally; bitwise identical to the old
    // branchy `if (in_all_[...]) w_ += 1.0` because counts + 0.0 == counts.
    kern::similarity_accumulate(fresh_assignment.data(), in_all_.data(), k, 0,
                                n, w_.data().data());
  } else {
    // Jaccard: |C'_k intersect I_j| / |C'_k union I_j|.
    Matrix& inter = jaccard_inter_;
    inter.resize(k, k);
    jaccard_fresh_size_.assign(k, 0.0);
    jaccard_hist_size_.assign(k, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t kk = fresh_assignment[i];
      jaccard_fresh_size_[kk] += 1.0;
      for (std::size_t j = 0; j < k; ++j) {
        if (in_all_[i * k + j]) {
          jaccard_hist_size_[j] += 1.0;
          inter(kk, j) += 1.0;
        }
      }
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < k; ++j) {
        const double uni =
            jaccard_fresh_size_[kk] + jaccard_hist_size_[j] - inter(kk, j);
        w_(kk, j) = uni > 0.0 ? inter(kk, j) / uni : 0.0;
      }
    }
  }
}

Clustering& DynamicClusterTracker::claim_slot() {
  const std::size_t cap = ring_.size();
  ring_head_ = (ring_head_ + cap - 1) % cap;
  if (ring_size_ < cap) ++ring_size_;
  return ring_[ring_head_];
}

const Clustering& DynamicClusterTracker::update(const Matrix& points) {
  return update(points, points);
}

const Clustering& DynamicClusterTracker::update(const Matrix& features,
                                                const Matrix& values) {
  RESMON_REQUIRE(features.rows() >= options_.k,
                 "need at least k points to cluster");
  RESMON_REQUIRE(features.rows() == values.rows(),
                 "features/values row count mismatch");
  const std::size_t n = features.rows();
  const std::size_t k = options_.k;
  if (ring_size_ > 0) {
    RESMON_REQUIRE(n == history(0).assignment.size(),
                   "node count changed between updates");
  }

  kmeans_into(features, k, rng_, options_.kmeans, kmeans_scratch_, raw_);

  // phi maps the raw K-means index k to the stable index j (eq. (11)).
  phi_.resize(k);
  if (ring_size_ == 0 || !options_.reindex) {
    for (std::size_t j = 0; j < k; ++j) phi_[j] = j;
    if (match_weight_ != nullptr) match_weight_->set(0.0);
  } else {
    similarity_into(raw_.assignment, n);
    max_weight_assignment_into(w_, assign_scratch_, phi_);
    if (match_weight_ != nullptr) {
      match_weight_->set(assignment_value(w_, phi_));
    }
  }

  // The slot claimed here is the oldest of the M + 1 retained clusterings;
  // the similarity pass read only the M newest above, so its buffers
  // recycle safely.
  Clustering& fresh = claim_slot();
  fresh.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    fresh.assignment[i] = phi_[raw_.assignment[i]];
  }
  // Report centroids in measurement space (eq. (1)); K-means' empty-cluster
  // repair guarantees every cluster has at least one member.
  centroids_of_into(values, fresh.assignment, k, counts_scratch_,
                    fresh.centroids, &empty_scratch_);

  if (updates_total_ != nullptr) {
    updates_total_->inc();
    kmeans_iterations_total_->inc(raw_.iterations);
    empty_clusters_->set(static_cast<double>(std::count(
        empty_scratch_.begin(), empty_scratch_.end(), true)));
    if (ring_size_ > 1) {
      std::uint64_t moved = 0;
      const Clustering& prev = history(1);
      for (std::size_t i = 0; i < n; ++i) {
        if (fresh.assignment[i] != prev.assignment[i]) ++moved;
      }
      reassignments_total_->inc(moved);
    }
  }

  ++steps_;
  return fresh;
}

const Clustering& DynamicClusterTracker::history(std::size_t age) const {
  RESMON_REQUIRE(age < ring_size_, "history age out of range");
  return ring_[(ring_head_ + age) % ring_.size()];
}

}  // namespace resmon::cluster
