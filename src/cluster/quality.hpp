// Clustering quality metrics and cluster-count selection.
//
// The paper fixes K = 3 after the sweep of Fig. 7; a deployment needs to
// pick K without ground truth. This module provides the mean silhouette
// and a chooser that also reports the K-means inertia curve for elbow
// inspection, so operators can size the number of forecasting models from
// data.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/kmeans.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace resmon::cluster {

/// Mean silhouette coefficient of a clustering in [-1, 1]; higher is
/// better. Points in singleton clusters contribute 0, as is conventional.
/// Requires at least 2 clusters with members.
double silhouette(const Matrix& points,
                  const std::vector<std::size_t>& assignment, std::size_t k);

/// Result of a K sweep.
struct KSelection {
  std::size_t best_k = 1;
  std::vector<std::size_t> ks;        ///< candidate K values evaluated
  std::vector<double> inertias;       ///< K-means inertia per candidate
  std::vector<double> silhouettes;    ///< mean silhouette per candidate
};

/// Sweep K over [k_min, k_max] and pick the K with the best (largest) mean
/// silhouette; inertias are reported for elbow inspection. Deterministic
/// given the Rng state. Requires points with at least one column.
KSelection choose_k(const Matrix& points, std::size_t k_min,
                    std::size_t k_max, Rng& rng,
                    const KMeansOptions& options = {});

}  // namespace resmon::cluster
