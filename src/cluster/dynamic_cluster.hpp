// Dynamic cluster construction over time (§V-B).
//
// Each time step the tracker runs K-means on the current central-store
// snapshot, then re-indexes the resulting clusters so they align with the
// clusters of the previous M steps: similarity w_{k,j} (eq. (10)) counts the
// nodes present both in the new cluster k and in cluster j throughout the
// last M steps, and the best one-to-one re-indexing (eq. (11)) is found with
// the Hungarian algorithm. The centroid of each (re-indexed) cluster then
// traces out the time series that the forecasting models are trained on;
// the tracker keeps no copy of that series — each cluster's
// forecast::ManagedForecaster owns it.
//
// The tracker retains only the last M + 1 clusterings (the M the
// similarity pass reads plus the newest one) and owns every scratch buffer
// its per-step work needs (K-means, similarity, Hungarian), so its memory
// is O(N * (M + 1)) whatever the run length and steady-state updates
// perform no heap allocations (see docs/PERFORMANCE.md "Zero-allocation
// steady state").
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/hungarian.hpp"
#include "cluster/kmeans.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace resmon::cluster {

/// One time step's clustering: per-node cluster index plus the centroids.
struct Clustering {
  std::vector<std::size_t> assignment;  ///< node index -> cluster j in [0,k)
  Matrix centroids;                     ///< k x d, eq. (1)
};

/// Similarity between a fresh K-means cluster and historical clusters.
enum class SimilarityKind {
  kIntersection,  ///< |C'_k  intersect  (AND over m of C_{j,t-m})|, eq. (10)
  kJaccard,       ///< normalized variant used in [20] (Fig. 11 baseline)
};

struct DynamicClusterOptions {
  std::size_t k = 3;          ///< number of clusters / forecasting models
  std::size_t history_m = 1;  ///< M: how far back the similarity looks
  SimilarityKind similarity = SimilarityKind::kIntersection;
  /// Disable the eq. (10)/(11) re-indexing (ablation): cluster labels are
  /// then whatever K-means returns, so centroid series lose identity.
  bool reindex = true;
  KMeansOptions kmeans;

  /// Optional metrics sink (non-owning). Series are labeled
  /// {view="metrics_view"} so the per-resource trackers of one pipeline
  /// stay distinguishable. nullptr = no instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_view;
};

/// Online evolutionary clustering: call update() once per time step with the
/// central store's snapshot; read the re-indexed clustering of this and
/// the last M steps through history().
class DynamicClusterTracker {
 public:
  DynamicClusterTracker(const DynamicClusterOptions& options,
                        std::uint64_t seed);

  /// Cluster the rows of `points` (n x d) and re-index against history.
  /// Returns the final clustering for this step (also kept in history).
  const Clustering& update(const Matrix& points);

  /// Cluster on `features` (n x f) but compute the reported centroids from
  /// `values` (n x d). Used when clustering on extended temporal-window
  /// feature vectors (Fig. 5) while forecasting needs measurement-space
  /// centroids of the current snapshot.
  const Clustering& update(const Matrix& features, const Matrix& values);

  std::size_t k() const { return options_.k; }
  std::size_t steps() const { return steps_; }

  /// Number of past clusterings currently retained: min(steps(), M + 1).
  std::size_t history_size() const { return ring_size_; }

  /// Clustering `age` steps ago: history(0) is the most recent update.
  /// Requires age < history_size().
  const Clustering& history(std::size_t age) const;

 private:
  /// Fill `w_` with the eq. (10) similarity of the fresh assignment
  /// against the retained history.
  void similarity_into(const std::vector<std::size_t>& fresh_assignment,
                       std::size_t n);
  /// Rotate the ring and return the slot for the new most-recent
  /// clustering (buffers recycled from the evicted entry).
  Clustering& claim_slot();

  DynamicClusterOptions options_;
  Rng rng_;
  // Ring of the last M + 1 clusterings, newest at ring_head_. A ring (not
  // a deque) so the per-step path recycles buffers instead of churning
  // allocator nodes.
  std::vector<Clustering> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::size_t steps_ = 0;
  // Per-step scratch (see class comment).
  KMeansScratch kmeans_scratch_;
  KMeansResult raw_;
  AssignmentScratch assign_scratch_;
  std::vector<std::size_t> phi_;
  // uint8_t (not vector<bool>) so the history/accumulate passes can run
  // through the kern:: SIMD dispatch on contiguous rows.
  std::vector<std::uint8_t> in_all_;
  Matrix w_;
  Matrix jaccard_inter_;
  std::vector<double> jaccard_fresh_size_;
  std::vector<double> jaccard_hist_size_;
  std::vector<std::size_t> counts_scratch_;
  std::vector<bool> empty_scratch_;
  // Optional metrics (all nullptr when no registry was given).
  obs::Counter* updates_total_ = nullptr;
  obs::Counter* kmeans_iterations_total_ = nullptr;
  obs::Counter* reassignments_total_ = nullptr;
  obs::Gauge* match_weight_ = nullptr;
  obs::Gauge* empty_clusters_ = nullptr;
};

}  // namespace resmon::cluster
