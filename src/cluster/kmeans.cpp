#include "cluster/kmeans.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/kernels.hpp"
#include "common/thread_pool.hpp"

namespace resmon::cluster {

namespace {

/// Points per task of the pooled Lloyd pass: one kern::lloyd_lanes group.
/// Determinism requires the partition to depend only on the point count,
/// never on the thread count, so this is a constant — do not derive it from
/// pool size.
constexpr std::size_t kGroupPoints = kern::kLloydChunk * kern::kLloydLanes;

/// Minimum n*k*d work per parallel region before a pool is worth waking:
/// below this, dispatch overhead exceeds the loop body and threads hurt
/// (the cluster_forecast_speedup < 1 anti-scaling documented in
/// docs/PERFORMANCE.md). The chunk partition is unchanged — only the
/// execution venue — so results stay bit-identical.
constexpr std::size_t kMinParallelWork = std::size_t{1} << 19;

ThreadPool* effective_pool(const KMeansOptions& options, std::size_t n,
                           std::size_t k, std::size_t d) {
  if (options.pool == nullptr) return nullptr;
  return n * k * d >= kMinParallelWork ? options.pool : nullptr;
}

/// k-means++ seeding: first centroid uniform, then proportional to squared
/// distance from the nearest chosen centroid. Distances run on the
/// dimension-major kernel; the RNG scan stays sequential on the calling
/// thread.
void seed_centroids_into(const Matrix& points, const double* const* cols,
                         std::size_t k, Rng& rng, std::vector<double>& dist2,
                         Matrix& centroids) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  centroids.resize(k, d);

  dist2.assign(n, std::numeric_limits<double>::max());
  std::size_t first = rng.index(n);
  for (std::size_t c = 0; c < d; ++c) centroids(0, c) = points(first, c);

  for (std::size_t j = 1; j < k; ++j) {
    kern::min_distance_update(cols, d, centroids.row(j - 1).data(), 0, n,
                              dist2.data());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += dist2[i];
    std::size_t chosen = 0;
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
      chosen = rng.index(n);  // all points coincide with chosen centroids
    }
    for (std::size_t c = 0; c < d; ++c) centroids(j, c) = points(chosen, c);
  }
}

void run_once_into(const Matrix& points, kern::LloydPoints lloyd_points,
                   std::size_t k, Rng& rng, const KMeansOptions& options,
                   KMeansScratch& scratch, KMeansResult& result) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  ThreadPool* pool = effective_pool(options, n, k, d);

  result.iterations = 0;
  seed_centroids_into(points, lloyd_points.cols, k, rng, scratch.dist2,
                      result.centroids);
  result.assignment.assign(n, 0);
  scratch.lane_assignment.resize(n);
  const kern::LloydAssignment assignment{result.assignment.data(),
                                         scratch.lane_assignment.data()};

  double prev_inertia = std::numeric_limits<double>::max();
  scratch.counts.assign(k, 0);

  // Per-chunk partials of the Lloyd pass. The chunk partition is fixed by
  // kern::kLloydChunk, each chunk accumulates its slice in point order, and
  // the merges below walk chunks in order — so the floating-point operation
  // sequence is identical at every thread count.
  const std::size_t chunks = ThreadPool::num_chunks(n, kern::kLloydChunk);
  scratch.chunk_inertia.resize(chunks);
  scratch.chunk_counts.resize(chunks * k);
  scratch.chunk_sums.resize(chunks * k * d);

  // The lanes leave their points' clusters in lane order. Only the last
  // pass's assignment is read, by an empty-cluster repair or the caller,
  // so it moves to point order once, when first read.
  bool scattered = true;
  const auto scatter = [&] {
    if (!scattered) kern::lloyd_scatter(assignment, n, d, k);
    scattered = true;
  };
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // One fused pass: each point's nearest centroid (strict-< argmin in
    // centroid order), then its squared distance, count and coordinates
    // into its chunk's partials. A task is a group of kLloydLanes chunks.
    run_chunked(pool, n, kGroupPoints,
                [&](std::size_t g, std::size_t begin, std::size_t end) {
                  const std::size_t c = g * kern::kLloydLanes;
                  kern::lloyd_lanes(
                      lloyd_points, d, result.centroids.data().data(), k,
                      begin, end, assignment,
                      {scratch.chunk_inertia.data() + c,
                       scratch.chunk_counts.data() + c * k,
                       scratch.chunk_sums.data() + c * k * d});
                });
    scattered = false;
    double inertia = 0.0;
    Matrix& sums = scratch.sums;
    sums.resize(k, d);
    std::vector<std::size_t>& counts = scratch.counts;
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t c = 0; c < chunks; ++c) {
      inertia += scratch.chunk_inertia[c];
      for (std::size_t j = 0; j < k; ++j) {
        counts[j] += scratch.chunk_counts[c * k + j];
      }
      const double* chunk_sums = scratch.chunk_sums.data() + c * k * d;
      for (std::size_t e = 0; e < k * d; ++e) {
        sums.data()[e] += chunk_sums[e];
      }
    }
    // Whether this pass left every centroid bitwise as it found them and
    // repaired no empty cluster. A pass, repairs included, reads nothing
    // but its input centroids and the points, so the repair test is not
    // needed for bit-identity today; it keeps the exit from depending on
    // how a repair picks its point.
    bool fixed_point = true;
    for (std::size_t j = 0; j < k; ++j) {
      if (counts[j] == 0) {
        fixed_point = false;
        scatter();
        // Empty cluster: seize the point farthest from its own centroid.
        std::size_t worst = 0;
        double worst_d2 = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d2 = squared_distance(
              result.centroids.row(result.assignment[i]), points.row(i));
          if (d2 > worst_d2) {
            worst_d2 = d2;
            worst = i;
          }
        }
        result.assignment[worst] = j;
        for (std::size_t c = 0; c < d; ++c) {
          result.centroids(j, c) = points(worst, c);
        }
        continue;
      }
      for (std::size_t c = 0; c < d; ++c) {
        const double mean = sums(j, c) / static_cast<double>(counts[j]);
        fixed_point = fixed_point && std::bit_cast<std::uint64_t>(mean) ==
                                         std::bit_cast<std::uint64_t>(
                                             result.centroids(j, c));
        result.centroids(j, c) = mean;
      }
    }

    if (prev_inertia - inertia < options.tolerance) {
      result.inertia = inertia;
      break;
    }
    prev_inertia = inertia;
    result.inertia = inertia;
    if (fixed_point) {
      // The next pass would start from the same centroids, so it would
      // repeat this one bit for bit, then stop on the tolerance test, or,
      // when that test cannot pass (a tolerance <= 0 or NaN), repeat until
      // max_iterations. Record what that loop would record.
      result.iterations = inertia - inertia < options.tolerance
                              ? std::min(iter + 2, options.max_iterations)
                              : options.max_iterations;
      break;
    }
  }
  scatter();
}

}  // namespace

void kmeans_into(const Matrix& points, std::size_t k, Rng& rng,
                 const KMeansOptions& options, KMeansScratch& scratch,
                 KMeansResult& out) {
  RESMON_REQUIRE(points.rows() > 0, "kmeans: no points");
  RESMON_REQUIRE(k >= 1 && k <= points.rows(),
                 "kmeans: k must be in [1, #points]");

  // One copy of the points per call. At d = 1 they are their own column,
  // and the lanes read the interleaved copy; wider points are transposed
  // to columns, from which the lanes gather.
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const double* column = points.data().data();
  kern::LloydPoints lloyd_points{&column, nullptr};
  if (d > 1) {
    scratch.soa.assign_from(points);
    lloyd_points.cols = scratch.soa.col_ptrs();
  }
  if (kern::lloyd_interleaves(d)) {
    scratch.lanes.resize(n * d);
    kern::lloyd_interleave(lloyd_points.cols, n, d, k, scratch.lanes.data());
    lloyd_points.lanes = scratch.lanes.data();
  }
  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);
  run_once_into(points, lloyd_points, k, rng, options, scratch, out);
  for (std::size_t r = 1; r < restarts; ++r) {
    KMeansResult& candidate = scratch.candidate;
    run_once_into(points, lloyd_points, k, rng, options, scratch, candidate);
    // Same winner the old `candidate.inertia < best.inertia` pick kept;
    // swapping (not copying) recycles the loser's buffers.
    if (candidate.inertia < out.inertia) std::swap(out, candidate);
  }
}

KMeansResult kmeans(const Matrix& points, std::size_t k, Rng& rng,
                    const KMeansOptions& options) {
  KMeansScratch scratch;
  KMeansResult out;
  kmeans_into(points, k, rng, options, scratch, out);
  return out;
}

void centroids_of_into(const Matrix& points,
                       const std::vector<std::size_t>& assignment,
                       std::size_t k, std::vector<std::size_t>& counts,
                       Matrix& centroids, std::vector<bool>* empty_out) {
  RESMON_REQUIRE(assignment.size() == points.rows(),
                 "centroids_of: assignment size mismatch");
  RESMON_REQUIRE(std::all_of(assignment.begin(), assignment.end(),
                             [k](std::size_t j) { return j < k; }),
                 "centroids_of: cluster out of range");
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  centroids.resize(k, d);
  counts.assign(k, 0);
  const double* x = points.data().data();
  double* sums = centroids.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = assignment[i];
    ++counts[j];
    for (std::size_t c = 0; c < d; ++c) sums[j * d + c] += x[i * d + c];
  }
  if (empty_out != nullptr) empty_out->assign(k, false);
  for (std::size_t j = 0; j < k; ++j) {
    if (counts[j] == 0) {
      if (empty_out != nullptr) (*empty_out)[j] = true;
      continue;
    }
    for (std::size_t c = 0; c < d; ++c) {
      centroids(j, c) /= static_cast<double>(counts[j]);
    }
  }
}

Matrix centroids_of(const Matrix& points,
                    const std::vector<std::size_t>& assignment, std::size_t k,
                    std::vector<bool>* empty_out) {
  Matrix centroids;
  std::vector<std::size_t> counts;
  centroids_of_into(points, assignment, k, counts, centroids, empty_out);
  return centroids;
}

double inertia_of(const Matrix& points,
                  const std::vector<std::size_t>& assignment,
                  const Matrix& centroids) {
  RESMON_REQUIRE(assignment.size() == points.rows(),
                 "inertia_of: assignment size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < points.rows(); ++i) {
    s += squared_distance(centroids.row(assignment[i]), points.row(i));
  }
  return s;
}

}  // namespace resmon::cluster
