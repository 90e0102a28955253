#include "cluster/quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace resmon::cluster {

double silhouette(const Matrix& points,
                  const std::vector<std::size_t>& assignment,
                  std::size_t k) {
  RESMON_REQUIRE(assignment.size() == points.rows(),
                 "silhouette: assignment size mismatch");
  RESMON_REQUIRE(k >= 2, "silhouette needs at least 2 clusters");
  const std::size_t n = points.rows();

  std::vector<std::size_t> counts(k, 0);
  for (const std::size_t a : assignment) {
    RESMON_REQUIRE(a < k, "silhouette: cluster index out of range");
    ++counts[a];
  }

  double total = 0.0;
  std::vector<double> dist_sum(k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t own = assignment[i];
    if (counts[own] <= 1) continue;  // singleton contributes 0

    std::fill(dist_sum.begin(), dist_sum.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dist_sum[assignment[j]] +=
          std::sqrt(squared_distance(points.row(i), points.row(j)));
    }
    const double a =
        dist_sum[own] / static_cast<double>(counts[own] - 1);
    double b = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < k; ++c) {
      if (c == own || counts[c] == 0) continue;
      b = std::min(b, dist_sum[c] / static_cast<double>(counts[c]));
    }
    const double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(n);
}

KSelection choose_k(const Matrix& points, std::size_t k_min,
                    std::size_t k_max, Rng& rng,
                    const KMeansOptions& options) {
  RESMON_REQUIRE(k_min >= 2, "choose_k: k_min must be >= 2");
  RESMON_REQUIRE(k_max >= k_min, "choose_k: k_max must be >= k_min");
  RESMON_REQUIRE(k_max <= points.rows(), "choose_k: k_max exceeds points");
  RESMON_REQUIRE(points.cols() >= 1, "choose_k: points have no dimension");

  KSelection out;
  double best_score = -2.0;
  for (std::size_t k = k_min; k <= k_max; ++k) {
    const KMeansResult r = kmeans(points, k, rng, options);
    const double score = silhouette(points, r.assignment, k);
    out.ks.push_back(k);
    out.inertias.push_back(r.inertia);
    out.silhouettes.push_back(score);
    if (score > best_score) {
      best_score = score;
      out.best_k = k;
    }
  }
  return out;
}

}  // namespace resmon::cluster
