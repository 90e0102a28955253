// Textbook sequential K-means: the oracle that cluster::kmeans_into must
// match bit for bit. It makes the same k-means++ draws, then runs plain
// Lloyd iterations one point at a time, row-major, with no kernels, lanes
// or pool: each 256-point chunk sums its squared distances, counts and
// coordinates in point order, the chunk partials merge in chunk order, and
// an empty cluster takes the point farthest from its own centroid. It
// counts the repairs it made and the passes that left every centroid
// bitwise unchanged, so tests can check that a case forces one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "cluster/kmeans.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace resmon::oracle {

struct ReferenceKMeans {
  cluster::KMeansResult result;
  // Over all restarts:
  std::size_t repairs = 0;  ///< empty clusters repaired
  /// Passes that left every centroid bitwise unchanged, with no repair.
  std::size_t fixed_points = 0;
  /// Passes that left every centroid bitwise unchanged after a repair.
  std::size_t repaired_fixed_points = 0;
};

/// Squared distance of row i of `points` to row j of `centroids`, summed in
/// dimension order from 0.0.
inline double reference_d2(const Matrix& points, std::size_t i,
                           const Matrix& centroids, std::size_t j) {
  double acc = 0.0;
  for (std::size_t c = 0; c < points.cols(); ++c) {
    const double diff = points(i, c) - centroids(j, c);
    acc += diff * diff;
  }
  return acc;
}

inline void reference_seed(const Matrix& points, std::size_t k, Rng& rng,
                           Matrix& centroids) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  centroids.resize(k, d);
  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  std::size_t chosen = rng.index(n);
  for (std::size_t j = 0; j < k; ++j) {
    if (j > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        dist2[i] = std::min(dist2[i], reference_d2(points, i, centroids,
                                                   j - 1));
      }
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) total += dist2[i];
      chosen = 0;
      if (total > 0.0) {
        double r = rng.uniform() * total;
        for (std::size_t i = 0; i < n; ++i) {
          r -= dist2[i];
          if (r <= 0.0) {
            chosen = i;
            break;
          }
        }
      } else {
        chosen = rng.index(n);
      }
    }
    for (std::size_t c = 0; c < d; ++c) centroids(j, c) = points(chosen, c);
  }
}

inline cluster::KMeansResult reference_lloyd(const Matrix& points,
                                             std::size_t k, Rng& rng,
                                             const cluster::KMeansOptions& o,
                                             ReferenceKMeans& tally) {
  constexpr std::size_t kChunk = 256;
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  cluster::KMeansResult r;
  reference_seed(points, k, rng, r.centroids);
  r.assignment.assign(n, 0);
  double prev_inertia = std::numeric_limits<double>::max();
  for (std::size_t iter = 0; iter < o.max_iterations; ++iter) {
    r.iterations = iter + 1;
    double inertia = 0.0;
    Matrix sums(k, d);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t begin = 0; begin < n; begin += kChunk) {
      double chunk_inertia = 0.0;
      Matrix chunk_sums(k, d);
      std::vector<std::size_t> chunk_counts(k, 0);
      for (std::size_t i = begin; i < std::min(n, begin + kChunk); ++i) {
        std::size_t best_j = 0;
        double best = reference_d2(points, i, r.centroids, 0);
        for (std::size_t j = 1; j < k; ++j) {
          const double d2 = reference_d2(points, i, r.centroids, j);
          if (d2 < best) {
            best = d2;
            best_j = j;
          }
        }
        r.assignment[i] = best_j;
        chunk_inertia += best;
        ++chunk_counts[best_j];
        for (std::size_t c = 0; c < d; ++c) {
          chunk_sums(best_j, c) += points(i, c);
        }
      }
      inertia += chunk_inertia;
      for (std::size_t j = 0; j < k; ++j) {
        counts[j] += chunk_counts[j];
        for (std::size_t c = 0; c < d; ++c) sums(j, c) += chunk_sums(j, c);
      }
    }
    const Matrix before = r.centroids;
    std::size_t pass_repairs = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (counts[j] == 0) {
        ++pass_repairs;
        std::size_t worst = 0;
        double worst_d2 = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d2 = reference_d2(points, i, r.centroids,
                                         r.assignment[i]);
          if (d2 > worst_d2) {
            worst_d2 = d2;
            worst = i;
          }
        }
        r.assignment[worst] = j;
        for (std::size_t c = 0; c < d; ++c) {
          r.centroids(j, c) = points(worst, c);
        }
        continue;
      }
      for (std::size_t c = 0; c < d; ++c) {
        r.centroids(j, c) = sums(j, c) / static_cast<double>(counts[j]);
      }
    }
    tally.repairs += pass_repairs;
    if (std::memcmp(before.data().data(), r.centroids.data().data(),
                    before.data().size() * sizeof(double)) == 0) {
      ++(pass_repairs == 0 ? tally.fixed_points
                           : tally.repaired_fixed_points);
    }
    r.inertia = inertia;
    if (prev_inertia - inertia < o.tolerance) break;
    prev_inertia = inertia;
  }
  return r;
}

/// kmeans_into's contract: `restarts` independent runs from one Rng, the
/// first of them kept unless a later one has strictly lower inertia.
inline ReferenceKMeans reference_kmeans(const Matrix& points, std::size_t k,
                                        Rng& rng,
                                        const cluster::KMeansOptions& o) {
  ReferenceKMeans ref;
  ref.result = reference_lloyd(points, k, rng, o, ref);
  for (std::size_t r = 1; r < std::max<std::size_t>(1, o.restarts); ++r) {
    cluster::KMeansResult candidate =
        reference_lloyd(points, k, rng, o, ref);
    if (candidate.inertia < ref.result.inertia) ref.result = candidate;
  }
  return ref;
}

}  // namespace resmon::oracle
