#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "reference_kmeans.hpp"

namespace resmon::cluster {
namespace {

/// Three well-separated 2-D blobs of `per_blob` points each.
Matrix make_blobs(std::size_t per_blob, Rng& rng) {
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 10.0}, {-10.0, 10.0}};
  Matrix points(3 * per_blob, 2);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      points(b * per_blob + i, 0) = centers[b][0] + rng.normal(0.0, 0.3);
      points(b * per_blob + i, 1) = centers[b][1] + rng.normal(0.0, 0.3);
    }
  }
  return points;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  Rng rng(1);
  const Matrix points = make_blobs(20, rng);
  const KMeansResult r = kmeans(points, 3, rng);

  // All points of one blob share one label, and labels differ across blobs.
  std::set<std::size_t> labels;
  for (std::size_t b = 0; b < 3; ++b) {
    const std::size_t label = r.assignment[b * 20];
    labels.insert(label);
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(r.assignment[b * 20 + i], label) << "blob " << b;
    }
  }
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeans, CentroidsNearBlobCenters) {
  Rng rng(2);
  const Matrix points = make_blobs(30, rng);
  const KMeansResult r = kmeans(points, 3, rng);
  // Each true center must be within 1.0 of some centroid.
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 10.0}, {-10.0, 10.0}};
  for (const auto& c : centers) {
    double best = 1e9;
    for (std::size_t j = 0; j < 3; ++j) {
      const double d2 = (r.centroids(j, 0) - c[0]) * (r.centroids(j, 0) - c[0]) +
                        (r.centroids(j, 1) - c[1]) * (r.centroids(j, 1) - c[1]);
      best = std::min(best, d2);
    }
    EXPECT_LT(best, 1.0);
  }
}

TEST(KMeans, KEqualsOneGivesGlobalMean) {
  Matrix points{{0.0}, {2.0}, {4.0}};
  Rng rng(3);
  const KMeansResult r = kmeans(points, 1, rng);
  EXPECT_NEAR(r.centroids(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(r.inertia, 8.0, 1e-12);
}

TEST(KMeans, KEqualsNIsZeroInertiaOnDistinctPoints) {
  Matrix points{{0.0}, {5.0}, {9.0}, {13.0}};
  Rng rng(4);
  const KMeansResult r = kmeans(points, 4, rng);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
  std::set<std::size_t> labels(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(labels.size(), 4u);
}

TEST(KMeans, AllIdenticalPointsAreHandled) {
  Matrix points(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    points(i, 0) = 1.0;
    points(i, 1) = 2.0;
  }
  Rng rng(5);
  const KMeansResult r = kmeans(points, 3, rng);
  EXPECT_LE(r.inertia, 1e-12);
}

TEST(KMeans, ValidatesArguments) {
  Matrix points{{0.0}, {1.0}};
  Rng rng(6);
  EXPECT_THROW(kmeans(points, 0, rng), InvalidArgument);
  EXPECT_THROW(kmeans(points, 3, rng), InvalidArgument);
  EXPECT_THROW(kmeans(Matrix(), 1, rng), InvalidArgument);
}

TEST(KMeans, InertiaNeverIncreasesWithLargerK) {
  Rng rng(7);
  Matrix points(40, 1);
  for (std::size_t i = 0; i < 40; ++i) points(i, 0) = rng.uniform();
  double prev = 1e18;
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    Rng local(99);
    const KMeansResult r = kmeans(points, k, local, {.restarts = 4});
    EXPECT_LE(r.inertia, prev + 1e-9) << "k = " << k;
    prev = r.inertia;
  }
}

TEST(KMeans, AssignmentIsNearestCentroid) {
  Rng rng(8);
  Matrix points(25, 2);
  for (std::size_t i = 0; i < 25; ++i) {
    points(i, 0) = rng.uniform();
    points(i, 1) = rng.uniform();
  }
  const KMeansResult r = kmeans(points, 4, rng);
  for (std::size_t i = 0; i < 25; ++i) {
    const double own =
        squared_distance(points.row(i), r.centroids.row(r.assignment[i]));
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_LE(own,
                squared_distance(points.row(i), r.centroids.row(j)) + 1e-9);
    }
  }
}

TEST(CentroidsOf, ComputesMemberMeans) {
  Matrix points{{0.0}, {2.0}, {10.0}};
  const std::vector<std::size_t> assignment{0, 0, 1};
  const Matrix c = centroids_of(points, assignment, 2);
  EXPECT_NEAR(c(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(c(1, 0), 10.0, 1e-12);
}

TEST(CentroidsOf, ReportsEmptyClusters) {
  Matrix points{{1.0}, {2.0}};
  const std::vector<std::size_t> assignment{0, 0};
  std::vector<bool> empty;
  const Matrix c = centroids_of(points, assignment, 3, &empty);
  EXPECT_FALSE(empty[0]);
  EXPECT_TRUE(empty[1]);
  EXPECT_TRUE(empty[2]);
  EXPECT_DOUBLE_EQ(c(1, 0), 0.0);
}

TEST(InertiaOf, MatchesKMeansInertia) {
  Rng rng(9);
  Matrix points(30, 2);
  for (std::size_t i = 0; i < 30; ++i) {
    points(i, 0) = rng.uniform();
    points(i, 1) = rng.uniform();
  }
  const KMeansResult r = kmeans(points, 3, rng);
  EXPECT_NEAR(inertia_of(points, r.assignment, r.centroids), r.inertia,
              1e-9);
}

// Property sweep over k: every cluster index returned is < k and every
// cluster is non-empty (the empty-cluster repair invariant).
class KMeansSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansSweepTest, LabelsInRangeAndNoEmptyClusters) {
  const std::size_t k = GetParam();
  Rng rng(k);
  Matrix points(50, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t c = 0; c < 3; ++c) points(i, c) = rng.uniform();
  }
  const KMeansResult r = kmeans(points, k, rng);
  std::vector<std::size_t> counts(k, 0);
  for (const std::size_t a : r.assignment) {
    ASSERT_LT(a, k);
    ++counts[a];
  }
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_GT(counts[j], 0u) << "empty cluster " << j << " with k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansSweepTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

// ---- kmeans_into against a textbook sequential Lloyd loop ----

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(CentroidsOf, MatchesPointLoopBitwise) {
  // Coordinates of -0.0 and NaN: a member mean is its members' sum from
  // 0.0 in point order over the count, and a NaN stays in its cluster.
  for (const std::size_t d : {1, 4, 5}) {
    for (const std::size_t k : {1, 3, 10, 11}) {
      SCOPED_TRACE(::testing::Message() << "d " << d << " k " << k);
      Rng rng(5 + 10 * d + 100 * k);
      const std::size_t n = 1000;
      Matrix points(n, d);
      std::vector<std::size_t> assignment(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < d; ++c) points(i, c) = rng.uniform();
        assignment[i] = rng.index(k);
        if (i % 5 == 1) points(i, i % d) = -0.0;
        if (i % 97 == 3) {
          points(i, 0) = std::numeric_limits<double>::quiet_NaN();
        }
      }
      std::vector<std::size_t> want_counts(k, 0);
      Matrix want(k, d);
      for (std::size_t i = 0; i < n; ++i) {
        ++want_counts[assignment[i]];
        for (std::size_t c = 0; c < d; ++c) {
          want(assignment[i], c) += points(i, c);
        }
      }
      std::vector<std::size_t> counts;
      Matrix got;
      centroids_of_into(points, assignment, k, counts, got, nullptr);
      EXPECT_EQ(counts, want_counts);
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t c = 0; c < d; ++c) {
          if (want_counts[j] != 0) {
            want(j, c) /= static_cast<double>(want_counts[j]);
          }
          EXPECT_TRUE(same_bits(got(j, c), want(j, c)))
              << "cluster " << j << " dim " << c;
        }
      }
    }
  }
}

/// n points around `centres` random centres in [0, 1]^d. A positive
/// `quantum` rounds every coordinate to a multiple of it, so seeded
/// centroids (which are points) put many points at exactly equal distances.
Matrix mixture(std::size_t n, std::size_t d, std::size_t centres,
               double quantum, Rng& rng) {
  Matrix mean(centres, d);
  for (double& v : mean.data()) v = rng.uniform();
  Matrix points(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t m = rng.index(centres);
    for (std::size_t c = 0; c < d; ++c) {
      double v = mean(m, c) + rng.normal(0.0, 0.08);
      if (quantum > 0.0) v = quantum * std::round(v / quantum);
      points(i, c) = v;
    }
  }
  return points;
}

std::vector<kern::Path> kernel_paths() {
  std::vector<kern::Path> paths{kern::Path::kScalar};
  if (kern::simd_supported()) paths.push_back(kern::Path::kSimd);
  return paths;
}

/// kmeans_into on every kernel path, with one scratch per path reused
/// across calls, must equal the oracle bit for bit and leave the Rng where
/// the oracle left it. Returns the oracle's run, with its pass counts.
oracle::ReferenceKMeans expect_matches_oracle(
    const Matrix& points, std::size_t k, const KMeansOptions& options,
    std::uint64_t seed, std::vector<KMeansScratch>& scratch) {
  SCOPED_TRACE(::testing::Message()
               << "n " << points.rows() << " d " << points.cols() << " k "
               << k << " restarts " << options.restarts << " max_iterations "
               << options.max_iterations << " tolerance "
               << options.tolerance);
  Rng oracle_rng(seed);
  const oracle::ReferenceKMeans want =
      oracle::reference_kmeans(points, k, oracle_rng, options);
  const double oracle_next = oracle_rng.uniform();
  const kern::Path saved = kern::active_path();
  const std::vector<kern::Path> paths = kernel_paths();
  scratch.resize(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    SCOPED_TRACE(::testing::Message()
                 << "path " << static_cast<int>(paths[p]));
    kern::set_path(paths[p]);
    Rng rng(seed);
    KMeansResult got;
    kmeans_into(points, k, rng, options, scratch[p], got);
    EXPECT_TRUE(same_bits(rng.uniform(), oracle_next)) << "Rng draws differ";
    EXPECT_EQ(got.assignment, want.result.assignment);
    EXPECT_EQ(got.iterations, want.result.iterations);
    EXPECT_TRUE(same_bits(got.inertia, want.result.inertia))
        << got.inertia << " vs " << want.result.inertia;
    const std::vector<double>& centroids = got.centroids.data();
    const std::vector<double>& oracle_centroids =
        want.result.centroids.data();
    EXPECT_EQ(centroids.size(), oracle_centroids.size());
    for (std::size_t e = 0;
         e < std::min(centroids.size(), oracle_centroids.size()); ++e) {
      EXPECT_TRUE(same_bits(centroids[e], oracle_centroids[e]))
          << "centroid entry " << e;
    }
  }
  kern::set_path(saved);
  return want;
}

/// Every K in {1, 2, 3, 5, 10} (K <= n), with one and two restarts, at point
/// counts that give groups of fewer than four chunks (3, 255, 256), a group
/// whose last chunk is short (1023), a whole group (1024), and a short tail
/// chunk after whole groups (1025, 4097).
void sweep_oracle(std::size_t d) {
  std::vector<KMeansScratch> scratch;
  std::uint64_t seed = 100 * d;
  for (const std::size_t n : {3, 255, 256, 1023, 1024, 1025, 4097}) {
    for (const std::size_t k : {1, 2, 3, 5, 10}) {
      if (k > n) continue;
      for (const std::size_t restarts : {1, 2}) {
        ++seed;
        Rng data_rng(seed);
        const double quantum = seed % 2 == 0 ? 1.0 / 16.0 : 0.0;
        const Matrix points = mixture(n, d, k, quantum, data_rng);
        expect_matches_oracle(points, k, {.restarts = restarts}, seed,
                              scratch);
      }
    }
  }
}

TEST(KMeansOracle, OneDimensionalPoints) { sweep_oracle(1); }

TEST(KMeansOracle, TwoDimensionalPoints) { sweep_oracle(2); }

TEST(KMeansOracle, FourDimensionalPoints) { sweep_oracle(4); }

TEST(KMeansOracle, FiveDimensionalPoints) { sweep_oracle(5); }

TEST(KMeansOracle, FleetSizedViews) {
  // The paper's 12,478 machines and a count whose last group is three
  // whole groups plus a short one: d = 1 views run in lanes from the
  // interleaved copy, d = 4 views gather from columns.
  std::vector<KMeansScratch> scratch;
  std::uint64_t seed = 700;
  for (const std::size_t n : {12478, 3 * 1024 + 190}) {
    for (const std::size_t d : {1, 4}) {
      for (const std::size_t k : {3, 10}) {
        for (const std::size_t restarts : {1, 2}) {
          ++seed;
          Rng data_rng(seed);
          const double quantum = seed % 2 == 0 ? 1.0 / 64.0 : 0.0;
          const Matrix points = mixture(n, d, k, quantum, data_rng);
          expect_matches_oracle(points, k, {.restarts = restarts}, seed,
                                scratch);
        }
      }
    }
  }
}

TEST(KMeansOracle, ForcedEmptyClusterRepair) {
  // Two distinct rows and K > 2: after both are seeded every distance is
  // zero, so k-means++ draws a duplicate centroid, which loses every tie
  // to its lower-index twin and comes out of the pass empty. The repair
  // reads the pass's assignment, which for laned points must first move
  // from lane order to point order; 3262 points span three whole groups.
  std::vector<KMeansScratch> scratch;
  for (const std::size_t n : {1025, 3 * 1024 + 190}) {
    for (const std::size_t d : {1, 4}) {
      for (const std::size_t k : {3, 5}) {
        Rng data_rng(7 * d + k);
        Matrix points(n, d);
        for (std::size_t i = 0; i < points.rows(); ++i) {
          const double v = data_rng.uniform() < 0.5 ? 0.2 : 0.8;
          for (std::size_t c = 0; c < d; ++c) points(i, c) = v;
        }
        for (const std::size_t restarts : {1, 2}) {
          const std::size_t repairs =
              expect_matches_oracle(points, k, {.restarts = restarts},
                                    31 * k + d, scratch)
                  .repairs;
          EXPECT_GT(repairs, 0u)
              << "n " << n << " d " << d << " k " << k << ": no repair";
        }
      }
    }
  }
}

/// Points on a 1/16 grid around k centres: Lloyd reaches a bitwise fixed
/// point within a few passes.
Matrix grid_mixture(std::size_t n, std::size_t d, std::size_t k,
                    std::uint64_t seed) {
  Rng data_rng(seed);
  return mixture(n, d, k, 1.0 / 16.0, data_rng);
}

TEST(KMeansOracle, ToleranceThatCannotPassRunsToMaxIterations) {
  // Past the fixed point the textbook loop's test reads 0 < tolerance,
  // which fails for a tolerance <= 0 or NaN: it repeats the fixed pass
  // until max_iterations, and the result must say so.
  std::vector<KMeansScratch> scratch;
  for (const double tolerance :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    for (const std::size_t d : {1, 4}) {
      const Matrix points = grid_mixture(1025, d, 3, 5 + d);
      const KMeansOptions options{
          .max_iterations = 40, .restarts = 2, .tolerance = tolerance};
      const oracle::ReferenceKMeans want =
          expect_matches_oracle(points, 3, options, 17 + d, scratch);
      EXPECT_EQ(want.result.iterations, 40u);
      EXPECT_GT(want.fixed_points, 0u) << "no fixed point reached";
    }
  }
}

TEST(KMeansOracle, MaxIterationsAroundTheFixedPoint) {
  // The default run stops at iteration T: its pass T - 1 was the fixed
  // point and pass T repeated it. Capping max_iterations at T - 2, T - 1
  // (the fixed point is the last pass), T (the repeat is) and T + 1 must
  // each record what the textbook loop records.
  std::vector<KMeansScratch> scratch;
  for (const std::size_t d : {1, 2, 4}) {
    for (const std::size_t k : {2, 3, 5}) {
      const Matrix points = grid_mixture(1023, d, k, 40 + 10 * d + k);
      const std::uint64_t seed = 90 + 10 * d + k;
      const oracle::ReferenceKMeans full =
          expect_matches_oracle(points, k, {.restarts = 1}, seed, scratch);
      ASSERT_GT(full.fixed_points, 0u) << "d " << d << " k " << k;
      const std::size_t stop = full.result.iterations;
      for (std::size_t cap = stop > 2 ? stop - 2 : 1; cap <= stop + 1;
           ++cap) {
        expect_matches_oracle(
            points, k, {.max_iterations = cap, .restarts = 1}, seed,
            scratch);
      }
    }
  }
}

TEST(KMeansOracle, RepairOnAPassWhoseCentroidsCompareEqual) {
  // Two exact values and K = 3: k-means++ seeds both, then a duplicate of
  // one of them, which comes out of the pass empty. The repair moves it to
  // point 0; when point 0 holds the duplicated value, the centroids come
  // out bitwise as they went in although the pass repaired a cluster and
  // reassigned a point. The next pass repeats that repair exactly, so an
  // exit here would match too; the case pins that the result is the
  // oracle's either way.
  std::vector<KMeansScratch> scratch;
  std::size_t equal_repairs = 0;
  for (const std::size_t d : {1, 4}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng data_rng(seed);
      Matrix points(300, d);
      for (std::size_t i = 0; i < points.rows(); ++i) {
        const double v = data_rng.uniform() < 0.5 ? 0.25 : 0.75;
        for (std::size_t c = 0; c < d; ++c) points(i, c) = v;
      }
      for (const double tolerance : {1e-10, 0.0}) {
        const KMeansOptions options{
            .max_iterations = 12, .restarts = 1, .tolerance = tolerance};
        equal_repairs +=
            expect_matches_oracle(points, 3, options, seed, scratch)
                .repaired_fixed_points;
      }
    }
  }
  EXPECT_GT(equal_repairs, 0u) << "no repair left the centroids unchanged";
}

}  // namespace
}  // namespace resmon::cluster
