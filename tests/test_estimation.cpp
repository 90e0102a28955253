#include "core/estimation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "reference_estimation.hpp"

namespace resmon::core {
namespace {

using oracle::alpha_scale;

cluster::Clustering make_clustering(std::vector<std::size_t> assignment,
                                    Matrix centroids) {
  cluster::Clustering c;
  c.assignment = std::move(assignment);
  c.centroids = std::move(centroids);
  return c;
}

/// One modal_offsets call over the newest M' + 1 steps of `history`: the
/// modal clusters, and the offsets in `offsets`.
std::vector<std::size_t> estimate(const cluster::ClusterHistory& history,
                                  std::size_t m_prime, Matrix& offsets,
                                  bool use_alpha = true) {
  std::vector<std::size_t> modal(history.at(0).values.rows());
  modal_offsets(history, m_prime + 1, use_alpha, modal, &offsets);
  return modal;
}

// ---- alpha_scale ---------------------------------------------------------

TEST(AlphaScale, OneWhenPointStaysNearOwnCentroid) {
  // Centroids at 0.2 and 0.8; a small delta from 0.2 stays in cluster 0.
  Matrix centroids{{0.2}, {0.8}};
  const std::vector<double> delta{0.1};
  EXPECT_DOUBLE_EQ(alpha_scale(delta, centroids, 0), 1.0);
}

TEST(AlphaScale, ClampsAtBisectorBetweenCentroids) {
  // Bisector between 0.2 and 0.8 is 0.5, i.e. delta 0.3 from c0. A delta
  // of 0.6 must be scaled by 0.5 so that c0 + alpha*delta = 0.5.
  Matrix centroids{{0.2}, {0.8}};
  const std::vector<double> delta{0.6};
  EXPECT_NEAR(alpha_scale(delta, centroids, 0), 0.5, 1e-12);
}

TEST(AlphaScale, DeltaAwayFromOtherCentroidIsUnclamped) {
  Matrix centroids{{0.5}, {0.9}};
  const std::vector<double> delta{-0.4};  // away from 0.9
  EXPECT_DOUBLE_EQ(alpha_scale(delta, centroids, 0), 1.0);
}

TEST(AlphaScale, NearestOfSeveralCentroidsBinds) {
  Matrix centroids{{0.0}, {1.0}, {0.4}};
  // From c0 toward both others; the closer bisector (0.2, from the 0.4
  // centroid) binds: alpha = 0.2 / 0.8 = 0.25.
  const std::vector<double> delta{0.8};
  EXPECT_NEAR(alpha_scale(delta, centroids, 0), 0.25, 1e-12);
}

TEST(AlphaScale, WorksInTwoDimensions) {
  Matrix centroids{{0.0, 0.0}, {1.0, 0.0}};
  // Delta orthogonal to the centroid gap is never clamped.
  const std::vector<double> up{0.0, 5.0};
  EXPECT_DOUBLE_EQ(alpha_scale(up, centroids, 0), 1.0);
  // Delta along the gap is clamped at the bisector x = 0.5.
  const std::vector<double> along{1.0, 0.0};
  EXPECT_NEAR(alpha_scale(along, centroids, 0), 0.5, 1e-12);
}

TEST(AlphaScale, ZeroDeltaGivesOne) {
  Matrix centroids{{0.1}, {0.9}};
  const std::vector<double> delta{0.0};
  EXPECT_DOUBLE_EQ(alpha_scale(delta, centroids, 0), 1.0);
}

TEST(AlphaScale, ValidatesArguments) {
  Matrix centroids{{0.1}, {0.9}};
  const std::vector<double> delta{0.1};
  EXPECT_THROW(alpha_scale(delta, centroids, 5), InvalidArgument);
  const std::vector<double> wrong_dim{0.1, 0.2};
  EXPECT_THROW(alpha_scale(wrong_dim, centroids, 0), InvalidArgument);
}

TEST(AlphaScale, ScaledPointIsStillNearestToOwnCentroid) {
  // Property: after scaling, c_j + alpha*delta is never strictly closer to
  // another centroid.
  Matrix centroids{{0.1}, {0.45}, {0.8}};
  for (double raw = -1.0; raw <= 1.0; raw += 0.05) {
    const std::vector<double> delta{raw};
    const double alpha = alpha_scale(delta, centroids, 1);
    const double point = centroids(1, 0) + alpha * delta[0];
    const double own = std::fabs(point - centroids(1, 0));
    EXPECT_LE(own, std::fabs(point - centroids(0, 0)) + 1e-9) << raw;
    EXPECT_LE(own, std::fabs(point - centroids(2, 0)) + 1e-9) << raw;
  }
}

// ---- offset tracking: modal_offsets over a history ------------------------

TEST(OffsetTracker, RejectsZeroClusters) {
  cluster::ClusterHistory history(6);
  EXPECT_THROW(history.push(Matrix(1, 1), make_clustering({0}, Matrix(0, 1))),
               InvalidArgument);
  history.push(Matrix(0, 1), make_clustering({}, Matrix(0, 1)));
  EXPECT_THROW(modal_offsets(history, 6, true, {}, nullptr), InvalidArgument);
}

TEST(OffsetTracker, QueriesBeforePushThrow) {
  const cluster::ClusterHistory history(6);
  std::vector<std::size_t> modal(1);
  Matrix offsets;
  EXPECT_THROW(modal_offsets(history, 6, true, modal, &offsets),
               InvalidState);
  EXPECT_THROW(modal_offsets(history, 6, true, modal, nullptr), InvalidState);
}

TEST(OffsetTracker, PushValidatesShapes) {
  cluster::ClusterHistory history(6);
  Matrix snapshot(3, 1);
  // Assignment size mismatch.
  EXPECT_THROW(history.push(snapshot, make_clustering({0, 0}, Matrix(2, 1))),
               InvalidArgument);
  // Dimension mismatch between snapshot and centroids.
  EXPECT_THROW(
      history.push(snapshot, make_clustering({0, 0, 0}, Matrix(2, 2))),
      InvalidArgument);
  EXPECT_TRUE(history.empty());
  // Cluster count changed from the newest step's.
  history.push(snapshot, make_clustering({0, 1, 0}, Matrix(2, 1)));
  EXPECT_THROW(
      history.push(snapshot, make_clustering({0, 0, 0}, Matrix(3, 1))),
      InvalidArgument);
  EXPECT_EQ(history.size(), 1u);
}

TEST(OffsetTracker, ModalClusterPicksMostFrequent) {
  cluster::ClusterHistory history(3);  // M' = 2 -> window of 3
  Matrix snapshot(1, 1);
  Matrix centroids{{0.2}, {0.8}};
  history.push(snapshot, make_clustering({0}, centroids));
  history.push(snapshot, make_clustering({1}, centroids));
  history.push(snapshot, make_clustering({1}, centroids));
  Matrix offsets;
  EXPECT_EQ(estimate(history, 2, offsets)[0], 1u);
}

TEST(OffsetTracker, ModalClusterTiesBreakLow) {
  cluster::ClusterHistory history(2);  // window of 2
  Matrix snapshot(1, 1);
  Matrix centroids{{0.1}, {0.5}, {0.9}};
  history.push(snapshot, make_clustering({2}, centroids));
  history.push(snapshot, make_clustering({1}, centroids));
  Matrix offsets;
  // 1 and 2 tie; lower wins.
  EXPECT_EQ(estimate(history, 1, offsets)[0], 1u);
}

TEST(OffsetTracker, WindowIsBounded) {
  // A pipeline history is often deeper than M' + 1 (it also serves the
  // temporal window); the query still reads only the newest M' + 1 steps,
  // and never more than the history holds.
  cluster::ClusterHistory history(6);
  Matrix snapshot(1, 1);
  Matrix centroids{{0.2}, {0.8}};
  for (int i = 0; i < 10; ++i) {
    history.push(snapshot, make_clustering({i < 8 ? 0u : 1u}, centroids));
  }
  EXPECT_EQ(history.size(), 6u);
  Matrix offsets;
  EXPECT_EQ(estimate(history, 1, offsets)[0], 1u);  // newest two: 1, 1
  EXPECT_EQ(estimate(history, 5, offsets)[0], 0u);  // four 0s, two 1s
  std::vector<std::size_t> modal(1);
  EXPECT_THROW(modal_offsets(history, 7, true, modal, nullptr),
               InvalidArgument);
  EXPECT_THROW(modal_offsets(history, 0, true, modal, nullptr),
               InvalidArgument);
}

TEST(OffsetTracker, OffsetIsAverageOfInClusterDeviations) {
  // Node sits 0.05 above its centroid on every step -> offset = 0.05.
  cluster::ClusterHistory history(3);
  Matrix centroids{{0.2}, {0.8}};
  Matrix snapshot(1, 1);
  snapshot(0, 0) = 0.25;
  for (int i = 0; i < 3; ++i) {
    history.push(snapshot, make_clustering({0}, centroids));
  }
  Matrix offsets;
  ASSERT_EQ(estimate(history, 2, offsets)[0], 0u);
  EXPECT_NEAR(offsets(0, 0), 0.05, 1e-12);
}

TEST(OffsetTracker, OffsetClampedWhenDeviationCrossesBisector) {
  // Node at 0.7 relative to centroid 0.2 with the other centroid at 0.8:
  // the bisector is 0.5, so alpha = 0.3/0.5 and the contribution per step
  // is 0.3 (point pinned at the bisector).
  cluster::ClusterHistory history(1);
  Matrix centroids{{0.2}, {0.8}};
  Matrix snapshot(1, 1);
  snapshot(0, 0) = 0.7;
  history.push(snapshot, make_clustering({0}, centroids));
  Matrix offsets;
  ASSERT_EQ(estimate(history, 0, offsets)[0], 0u);
  EXPECT_NEAR(offsets(0, 0), 0.3, 1e-12);
}

TEST(OffsetTracker, OffsetRelativeToRequestedCluster) {
  // The offset is taken relative to the modal cluster the query uses.
  cluster::ClusterHistory history(1);
  Matrix centroids{{0.2}, {0.8}};
  Matrix snapshot(1, 1);
  snapshot(0, 0) = 0.75;
  history.push(snapshot, make_clustering({1}, centroids));
  Matrix offsets;
  ASSERT_EQ(estimate(history, 0, offsets)[0], 1u);
  // Relative to cluster 1 the deviation is -0.05 (in-cluster, alpha = 1).
  EXPECT_NEAR(offsets(0, 0), -0.05, 1e-12);
}

TEST(OffsetTracker, NodeCountMustStayConstant) {
  cluster::ClusterHistory history(4);
  Matrix centroids{{0.2}, {0.8}};
  history.push(Matrix(2, 1), make_clustering({0, 1}, centroids));
  EXPECT_THROW(
      history.push(Matrix(3, 1), make_clustering({0, 1, 0}, centroids)),
      InvalidArgument);
  std::vector<std::size_t> too_few(1);
  EXPECT_THROW(modal_offsets(history, 4, true, too_few, nullptr),
               InvalidArgument);
}

TEST(OffsetTracker, ClusterIndexValidated) {
  cluster::ClusterHistory history(4);
  Matrix centroids{{0.2}, {0.8}};
  EXPECT_THROW(history.push(Matrix(1, 1), make_clustering({7}, centroids)),
               InvalidArgument);
  EXPECT_TRUE(history.empty());
}

// ---- modal_offsets against the textbook per-node loop ----------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<kern::Path> kernel_paths() {
  std::vector<kern::Path> paths{kern::Path::kScalar};
  if (kern::simd_supported()) paths.push_back(kern::Path::kSimd);
  return paths;
}

struct Sweep {
  std::size_t n = 37;  ///< not a multiple of the four lanes
  std::size_t steps = 8;
  bool use_alpha = true;
  bool ties = false;  ///< nodes alternate between two clusters
};

/// One step's clustering and snapshot. Coordinates sit on a 1/16 grid, so
/// equal distances, zero deltas and zero dot products happen; one centroid
/// in four repeats centroid 0 (gap2 = 0); a node lies near its own centroid,
/// far past a bisector, or exactly on its centroid.
std::pair<cluster::Clustering, Matrix> random_step(std::size_t n,
                                                   std::size_t d,
                                                   std::size_t k,
                                                   std::size_t step,
                                                   bool ties, Rng& rng) {
  const auto grid = [](double v) { return std::round(v * 16.0) / 16.0; };
  cluster::Clustering clustering;
  clustering.centroids = Matrix(k, d);
  for (std::size_t j = 0; j < k; ++j) {
    const bool repeat = j > 0 && rng.index(4) == 0;
    for (std::size_t c = 0; c < d; ++c) {
      clustering.centroids(j, c) =
          repeat ? clustering.centroids(0, c) : grid(rng.uniform());
    }
  }
  clustering.assignment.resize(n);
  Matrix snapshot(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j =
        ties ? (i + step) % 2 % k : (rng.index(3) == 0 ? i % k : rng.index(k));
    clustering.assignment[i] = j;
    const std::size_t kind = rng.index(4);
    for (std::size_t c = 0; c < d; ++c) {
      const double centre = clustering.centroids(j, c);
      snapshot(i, c) = kind == 0   ? centre
                       : kind == 1 ? grid(rng.uniform(-1.0, 2.0))
                                   : centre + rng.normal(0.0, 0.05);
    }
  }
  return {std::move(clustering), std::move(snapshot)};
}

/// After every push, on every kernel path: the modal clusters equal the
/// oracle's, and each offset equals the oracle's offset relative to the
/// node's modal cluster bit for bit; a call without offsets returns the
/// same modal clusters.
void expect_matches_oracle(std::size_t d, std::size_t k,
                           std::size_t m_prime, const Sweep& sweep) {
  SCOPED_TRACE(::testing::Message() << "d " << d << " k " << k << " M' "
                                    << m_prime << " n " << sweep.n);
  const kern::Path saved = kern::active_path();
  for (const kern::Path path : kernel_paths()) {
    SCOPED_TRACE(::testing::Message() << "path " << static_cast<int>(path));
    kern::set_path(path);
    // Two steps deeper than the window, as when the temporal window or M
    // sets a pipeline history's depth.
    cluster::ClusterHistory history(m_prime + 3);
    oracle::ReferenceOffsets reference(m_prime, k, sweep.use_alpha);
    Rng rng(1000 * d + 10 * k + m_prime);
    for (std::size_t step = 0; step < sweep.steps; ++step) {
      const auto [clustering, snapshot] =
          random_step(sweep.n, d, k, step, sweep.ties, rng);
      history.push(snapshot, clustering);
      reference.push(clustering, snapshot);
      Matrix offsets;
      const std::vector<std::size_t> modal =
          estimate(history, m_prime, offsets, sweep.use_alpha);
      std::vector<std::size_t> modal_only(sweep.n);
      modal_offsets(history, m_prime + 1, sweep.use_alpha, modal_only,
                    nullptr);
      EXPECT_EQ(modal_only, modal);
      ASSERT_EQ(offsets.rows(), sweep.n);
      ASSERT_EQ(offsets.cols(), d);
      for (std::size_t i = 0; i < sweep.n; ++i) {
        ASSERT_EQ(modal[i], reference.modal_cluster(i))
            << "step " << step << " node " << i;
        const std::vector<double> want = reference.offset(i, modal[i]);
        for (std::size_t c = 0; c < d; ++c) {
          ASSERT_TRUE(same_bits(offsets(i, c), want[c]))
              << "step " << step << " node " << i << " dim " << c << ": "
              << offsets(i, c) << " vs " << want[c];
        }
      }
    }
  }
  kern::set_path(saved);
}

void sweep_shapes(std::size_t d, const Sweep& sweep = {}) {
  for (const std::size_t k : {1, 2, 3, 10, 11}) {
    for (const std::size_t m_prime : {0, 1, 5}) {
      expect_matches_oracle(d, k, m_prime, sweep);
    }
  }
}

TEST(OffsetOracle, OneDimensionalPoints) { sweep_shapes(1); }

TEST(OffsetOracle, TwoDimensionalPoints) { sweep_shapes(2); }

TEST(OffsetOracle, FourDimensionalPoints) { sweep_shapes(4); }

TEST(OffsetOracle, FiveDimensionalPoints) { sweep_shapes(5); }

TEST(OffsetOracle, ForcedTiesBreakToLowerCluster) {
  // Every node alternates between clusters 0 and 1, so an even window ties.
  for (const std::size_t d : {1, 4, 5}) {
    sweep_shapes(d, Sweep{.ties = true});
  }
}

TEST(OffsetOracle, WithoutAlphaScaling) {
  for (const std::size_t d : {1, 2, 4, 5}) {
    sweep_shapes(d, Sweep{.use_alpha = false});
  }
}

TEST(OffsetOracle, SingleNodeAndOneFullLaneGroup) {
  for (const std::size_t n : {1, 4}) {
    expect_matches_oracle(1, 3, 5, Sweep{.n = n});
    expect_matches_oracle(4, 10, 1, Sweep{.n = n});
  }
}

TEST(OffsetOracle, ModalSweepBreaksEveryTieToTheLowerCluster) {
  // Every K up to one past the lane instances, every window up to 6, and
  // node counts around the four-node lane groups. Half the nodes alternate
  // between two random clusters, so an even window ties them; a node's
  // lower cluster comes second as often as first.
  const kern::Path saved = kern::active_path();
  for (const kern::Path path : kernel_paths()) {
    kern::set_path(path);
    for (std::size_t k = 1; k <= 11; ++k) {
      for (std::size_t window = 1; window <= 6; ++window) {
        for (const std::size_t n : {1, 3, 4, 5, 1001}) {
          SCOPED_TRACE(::testing::Message()
                       << "path " << static_cast<int>(path) << " K " << k
                       << " window " << window << " n " << n);
          Rng rng(100 * k + 10 * window + n);
          std::vector<std::size_t> first(n), second(n);
          for (std::size_t i = 0; i < n; ++i) {
            first[i] = rng.index(k);
            second[i] = rng.index(k);
          }
          cluster::ClusterHistory history(window);
          oracle::ReferenceOffsets reference(window - 1, k, true);
          std::size_t ties = 0;
          for (std::size_t step = 0; step < window; ++step) {
            cluster::Clustering clustering;
            clustering.centroids = Matrix(k, 1);
            clustering.assignment.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
              clustering.assignment[i] =
                  i % 2 == 0 ? (step % 2 == 0 ? first[i] : second[i])
                             : rng.index(k);
            }
            const Matrix snapshot(n, 1);
            history.push(snapshot, clustering);
            reference.push(clustering, snapshot);
          }
          std::vector<std::size_t> modal(n);
          modal_offsets(history, window, true, modal, nullptr);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(modal[i], reference.modal_cluster(i)) << "node " << i;
            ties += i % 2 == 0 && window % 2 == 0 && first[i] != second[i];
          }
          if (k > 1 && window % 2 == 0 && n == 1001) {
            EXPECT_GT(ties, 0u) << "no tie was forced";
          }
        }
      }
    }
  }
  kern::set_path(saved);
}

TEST(OffsetOracle, ModalOnlyCallLeavesOffsetsAlone) {
  // use_offset off: the pipeline asks for modal clusters alone.
  cluster::ClusterHistory history(2);
  history.push(Matrix{{0.9}, {0.1}},
               make_clustering({1, 0}, Matrix{{0.2}, {0.8}}));
  std::vector<std::size_t> modal(2);
  modal_offsets(history, 2, true, modal, nullptr);
  EXPECT_EQ(modal, (std::vector<std::size_t>{1, 0}));
}

}  // namespace
}  // namespace resmon::core
