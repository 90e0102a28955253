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
// The caller owns the history (a ClusterHistory of snapshots and their
// clusterings, shared with every other reader); the tracker keeps only its
// RNG and per-step scratch (K-means, similarity, Hungarian), so
// steady-state updates perform no heap allocations (see
// docs/PERFORMANCE.md "Zero-allocation steady state").
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

/// One step of a view's history: the snapshot clustered at that step and
/// its clustering (centroids in the snapshot's measurement space).
struct HistoryStep {
  Matrix values;  ///< n x d stored measurements
  Clustering clustering;
};

/// A view's history: the last depth() steps, newest at age 0. advance()
/// recycles the oldest step in place, so its buffers keep their capacity
/// and a steady-state step allocates nothing.
class ClusterHistory {
 public:
  explicit ClusterHistory(std::size_t depth);

  std::size_t depth() const { return steps_.size(); }
  /// Steps recorded so far, at most depth().
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Start a new newest step: the oldest one becomes age 0, still holding
  /// its old contents for the caller to overwrite.
  HistoryStep& advance();

  /// Record a snapshot with a clustering made outside a
  /// DynamicClusterTracker (a baseline, a test). Checks one cluster index
  /// below K per snapshot row, centroids in the snapshot's dimension, and
  /// the newest step's N and K, then copies both into a recycled step.
  void push(const Matrix& values, const Clustering& clustering);

  /// The step `age` steps back (0 = newest). Requires age < size().
  const HistoryStep& at(std::size_t age) const { return steps_[index(age)]; }
  HistoryStep& at(std::size_t age) { return steps_[index(age)]; }

 private:
  std::size_t index(std::size_t age) const;

  std::vector<HistoryStep> steps_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Similarity between a fresh K-means cluster and historical clusters.
enum class SimilarityKind {
  kIntersection,  ///< |C'_k  intersect  (AND over m of C_{j,t-m})|, eq. (10)
  kJaccard,       ///< normalized variant used in [20] (Fig. 11 baseline)
};

/// Buffers of reindex_weights_into, reused across calls so a steady-state
/// step allocates nothing.
struct ReindexScratch {
  /// Per node: the cluster it held at every past step read, or K if it
  /// moved.
  std::vector<std::size_t> stayed;
  std::vector<double> fresh_size;   ///< Jaccard: |C'_k|
  std::vector<double> stayed_size;  ///< Jaccard: nodes that stayed in j
};

/// Eq. (10) weights of a fresh K-means assignment (one cluster index below
/// k per node) against the clusterings at ages 1..lookback of `history`:
/// w(kk, j) counts the nodes in fresh cluster kk that were in cluster j at
/// every one of those steps; kJaccard divides that count by the size of
/// the union of the two sets (0 for an empty union). Each node adds 1.0 to
/// one cell at most, and the counts are exact integers, so the weights do
/// not depend on the order nodes are counted in. Requires
/// 1 <= lookback < history.size(); w is resized to k x k.
void reindex_weights_into(const std::vector<std::size_t>& fresh,
                          const ClusterHistory& history, std::size_t lookback,
                          std::size_t k, SimilarityKind kind,
                          ReindexScratch& scratch, Matrix& w);

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

/// Online evolutionary clustering: once per time step, advance the view's
/// history, write the central store's snapshot into its values and call
/// update(); the re-indexed clustering lands in the same step.
class DynamicClusterTracker {
 public:
  DynamicClusterTracker(const DynamicClusterOptions& options,
                        std::uint64_t seed);

  /// Cluster the newest step's values (history.at(0).values, n x d),
  /// re-index against the M steps before it and write the result, with
  /// measurement-space centroids, to history.at(0).clustering. Requires
  /// history.depth() >= M + 1.
  const Clustering& update(ClusterHistory& history);

  /// Cluster on `features` (n x f) but compute the reported centroids from
  /// the newest step's values. Used when clustering on extended
  /// temporal-window feature vectors (Fig. 5) while forecasting needs
  /// measurement-space centroids of the current snapshot.
  const Clustering& update(const Matrix& features, ClusterHistory& history);

  std::size_t k() const { return options_.k; }
  std::size_t steps() const { return steps_; }

 private:
  DynamicClusterOptions options_;
  Rng rng_;
  std::size_t steps_ = 0;
  // Per-step scratch (see class comment).
  KMeansScratch kmeans_scratch_;
  KMeansResult raw_;
  AssignmentScratch assign_scratch_;
  std::vector<std::size_t> phi_;
  ReindexScratch reindex_scratch_;
  Matrix w_;
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
