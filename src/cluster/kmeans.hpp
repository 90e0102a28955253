// K-means clustering (Lloyd's algorithm with k-means++ seeding).
//
// The paper's central node runs K-means on the stored measurements z_t at
// every time step (§V-B); this implementation supports arbitrary point
// dimension so the same code serves per-resource scalar clustering, joint
// full-vector clustering, temporal-window clustering (Fig. 5) and the
// offline whole-series baseline.
//
// Each Lloyd iteration is one fused pass over the points
// (kern::lloyd_lanes): it assigns every point to its nearest centroid and
// adds its squared distance, count and coordinates to its 256-point
// chunk's partials, which merge in chunk order. Points with d <= 4 and
// K <= 10 (per-resource and joint views) run four chunks side by side, one
// per lane of an AVX2 vector, d = 1 points from a copy interleaved by lane
// and wider ones from a dimension-major copy; every lane, the scalar and
// SIMD paths and every thread count keep the serial loop's operation order,
// so results are bit-identical to a textbook Lloyd loop (DESIGN.md "Memory
// layout & SIMD kernels"). A run stops early once a pass leaves every
// centroid bitwise unchanged without repairing an empty cluster: from
// there the textbook loop only repeats that pass, and the result records
// what it would have (iterations included). k-means++ seeding reads the
// points by dimension, as the pass's one-chunk loop does. Callers on the
// per-slot hot path pass a KMeansScratch via kmeans_into() so repeated
// runs perform no steady-state allocations.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/soa.hpp"

namespace resmon {
class ThreadPool;
}

namespace resmon::cluster {

struct KMeansOptions {
  std::size_t max_iterations = 100;
  std::size_t restarts = 2;    ///< independent k-means++ restarts; best kept.
  double tolerance = 1e-10;    ///< stop when inertia improvement is below.
  /// Optional worker pool for the Lloyd pass. Results are bit-identical
  /// with and without a pool: the pass uses a fixed chunk partition and
  /// merges per-chunk partials in chunk order
  /// (see common/thread_pool.hpp), and all RNG draws (seeding) stay on the
  /// calling thread. Non-owning; nullptr = serial. Regions smaller than an
  /// internal work threshold run serially even with a pool (identical
  /// results — only the execution venue changes).
  ThreadPool* pool = nullptr;
};

struct KMeansResult {
  std::vector<std::size_t> assignment;  ///< point index -> cluster in [0,k)
  Matrix centroids;                     ///< k x d
  double inertia = 0.0;                 ///< sum of squared distances
  /// Lloyd iterations of the best restart, as the textbook loop counts
  /// them: past a fixed point the passes it would repeat count too.
  std::size_t iterations = 0;
};

/// Reusable buffers for kmeans_into(): the one copy of the points it makes
/// (columns for d > 1, kern::lloyd_interleave's layout for d = 1), the
/// seeding distances, the lanes' assignment, the per-chunk partials of the
/// Lloyd pass and their merge, and the runner-up restart result. Owned by
/// long-lived callers (DynamicClusterTracker) so the per-step path
/// allocates nothing once warm.
struct KMeansScratch {
  SoaMatrix soa;
  std::vector<double> lanes;
  std::vector<double> dist2;  ///< k-means++ seeding distances
  /// kern::LloydAssignment::lanes of the last pass, in lane order.
  std::vector<std::size_t> lane_assignment;
  /// kern::LloydPartials of every chunk: inertia[c], counts[c*k + j],
  /// sums[(c*k + j)*d + dim].
  std::vector<double> chunk_inertia;
  std::vector<std::size_t> chunk_counts;
  std::vector<double> chunk_sums;
  Matrix sums;  ///< chunk_sums merged in chunk order
  std::vector<std::size_t> counts;
  KMeansResult candidate;  ///< losing restart, kept for buffer reuse
};

/// Cluster the rows of `points` (n x d) into k groups. Requires 1 <= k <= n.
/// Deterministic given the Rng state. Empty clusters are repaired by
/// stealing the point farthest from its centroid.
KMeansResult kmeans(const Matrix& points, std::size_t k, Rng& rng,
                    const KMeansOptions& options = {});

/// Allocation-free variant: result buffers in `out` and every internal
/// buffer in `scratch` are reused across calls. Identical results to
/// kmeans().
void kmeans_into(const Matrix& points, std::size_t k, Rng& rng,
                 const KMeansOptions& options, KMeansScratch& scratch,
                 KMeansResult& out);

/// Mean of each cluster's member rows for an externally supplied assignment
/// (used to recompute centroids of baseline clusterings on fresh data).
/// Clusters with no members get a row of zeros and are reported in
/// `empty_out` when non-null.
Matrix centroids_of(const Matrix& points,
                    const std::vector<std::size_t>& assignment, std::size_t k,
                    std::vector<bool>* empty_out = nullptr);

/// In-place variant of centroids_of reusing the caller's buffers.
void centroids_of_into(const Matrix& points,
                       const std::vector<std::size_t>& assignment,
                       std::size_t k, std::vector<std::size_t>& counts,
                       Matrix& centroids, std::vector<bool>* empty_out);

/// Sum of squared distances from each row to its assigned centroid.
double inertia_of(const Matrix& points,
                  const std::vector<std::size_t>& assignment,
                  const Matrix& centroids);

}  // namespace resmon::cluster
