#include "cluster/dynamic_cluster.hpp"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace resmon::cluster {
namespace {

using obs::Labels;

/// Two 1-D groups around lo and hi with per-point jitter.
Matrix two_groups(double lo, double hi, std::size_t per_group, Rng& rng) {
  Matrix points(2 * per_group, 1);
  for (std::size_t i = 0; i < per_group; ++i) {
    points(i, 0) = lo + rng.normal(0.0, 0.02);
    points(per_group + i, 0) = hi + rng.normal(0.0, 0.02);
  }
  return points;
}

/// A tracker plus the M + 1 deep history it writes, owned side by side as
/// the pipeline owns them: update(points) records `points` as the newest
/// step's values and clusters them.
struct Tracked : DynamicClusterTracker {
  Tracked(const DynamicClusterOptions& options, std::uint64_t seed)
      : DynamicClusterTracker(options, seed), history(options.history_m + 1) {}

  using DynamicClusterTracker::update;
  const Clustering& update(const Matrix& points) {
    history.advance().values = points;
    return update(history);
  }

  ClusterHistory history;
};

// -- the caller-owned history ------------------------------------------------

/// Advance `history` and write a 2 x 1 step whose values and assignment
/// carry `tag`.
void record(ClusterHistory& history, double tag) {
  HistoryStep& step = history.advance();
  step.values.resize(2, 1);
  step.values(0, 0) = tag;
  step.values(1, 0) = tag;
  step.clustering.assignment.assign(2, static_cast<std::size_t>(tag));
}

TEST(ClusterHistory, AgesRunNewestFirst) {
  ClusterHistory history(3);
  for (int t = 0; t < 5; ++t) {
    record(history, t);
    ASSERT_EQ(history.size(), std::min<std::size_t>(t + 1, 3));
    for (std::size_t age = 0; age < history.size(); ++age) {
      EXPECT_EQ(history.at(age).values(0, 0), t - static_cast<double>(age));
      EXPECT_EQ(history.at(age).clustering.assignment[1],
                static_cast<std::size_t>(t) - age);
    }
  }
}

TEST(ClusterHistory, RecyclesTheOldestStepInPlace) {
  // Once full, advance() hands back the oldest step with its buffers: the
  // same storage, so rewriting a step of the same shape allocates nothing.
  ClusterHistory history(2);
  record(history, 0);
  record(history, 1);
  const HistoryStep& oldest = history.at(1);
  const double* values = oldest.values.data().data();
  const std::size_t* assignment = oldest.clustering.assignment.data();
  HistoryStep& recycled = history.advance();
  EXPECT_EQ(&recycled, &oldest);
  EXPECT_EQ(recycled.values(0, 0), 0.0);  // old contents, to overwrite
  record(history, 2);  // recycles step 1's storage
  record(history, 3);  // and comes back round to step 0's
  EXPECT_EQ(history.at(0).values.data().data(), values);
  EXPECT_EQ(history.at(0).clustering.assignment.data(), assignment);
  EXPECT_EQ(history.at(0).values(1, 0), 3.0);
}

TEST(ClusterHistory, DepthBoundsTheSize) {
  EXPECT_THROW(ClusterHistory(0), InvalidArgument);
  ClusterHistory history(4);
  EXPECT_EQ(history.depth(), 4u);
  EXPECT_TRUE(history.empty());
  for (int t = 0; t < 50; ++t) record(history, t % 3);
  EXPECT_EQ(history.size(), 4u);
  EXPECT_EQ(history.depth(), 4u);
}

TEST(ClusterHistory, AtBeyondSizeThrows) {
  ClusterHistory history(3);
  EXPECT_THROW(history.at(0), InvalidArgument);
  record(history, 0);
  EXPECT_NO_THROW(history.at(0));
  EXPECT_THROW(history.at(1), InvalidArgument);
  const ClusterHistory& read_only = history;
  EXPECT_THROW(read_only.at(3), InvalidArgument);
}

// -- the tracker -------------------------------------------------------------

TEST(DynamicCluster, ValidatesOptions) {
  EXPECT_THROW(DynamicClusterTracker({.k = 0}, 1), InvalidArgument);
  EXPECT_THROW(DynamicClusterTracker({.k = 2, .history_m = 0}, 1),
               InvalidArgument);
  // The history must hold the M clusterings re-indexing reads plus the
  // newest step.
  DynamicClusterTracker tracker({.k = 2, .history_m = 2}, 1);
  ClusterHistory shallow(2);
  Rng rng(1);
  shallow.advance().values = two_groups(0.2, 0.8, 5, rng);
  EXPECT_THROW(tracker.update(shallow), InvalidArgument);
  EXPECT_EQ(tracker.steps(), 0u);
}

TEST(DynamicCluster, FirstUpdateProducesKClusters) {
  Tracked tracker({.k = 2}, 1);
  Rng rng(1);
  const Clustering& c = tracker.update(two_groups(0.2, 0.8, 10, rng));
  EXPECT_EQ(c.assignment.size(), 20u);
  EXPECT_EQ(c.centroids.rows(), 2u);
  std::set<std::size_t> labels(c.assignment.begin(), c.assignment.end());
  EXPECT_EQ(labels.size(), 2u);
}

TEST(DynamicCluster, LabelsStayStableAcrossSteps) {
  // The same two groups drift slightly each step; the re-indexing must keep
  // each group under the same label for the whole run.
  Tracked tracker({.k = 2, .history_m = 1}, 2);
  Rng rng(2);
  const Clustering& first = tracker.update(two_groups(0.2, 0.8, 10, rng));
  const std::size_t lo_label = first.assignment[0];
  const std::size_t hi_label = first.assignment[10];
  ASSERT_NE(lo_label, hi_label);

  for (std::size_t t = 1; t < 30; ++t) {
    const double drift = 0.002 * static_cast<double>(t);
    const Clustering& c =
        tracker.update(two_groups(0.2 + drift, 0.8 - drift, 10, rng));
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(c.assignment[i], lo_label) << "t=" << t;
      EXPECT_EQ(c.assignment[10 + i], hi_label) << "t=" << t;
    }
  }
}

TEST(DynamicCluster, CentroidSeriesTracksGroupMeans) {
  // Each step's newest clustering reports the group means as centroids,
  // under the labels of the first step.
  Tracked tracker({.k = 2}, 3);
  Rng rng(3);
  std::size_t lo_label = 0;
  for (std::size_t t = 0; t < 10; ++t) {
    tracker.update(two_groups(0.3, 0.7, 8, rng));
    const Clustering& c = tracker.history.at(0).clustering;
    if (t == 0) lo_label = c.assignment[0];
    ASSERT_EQ(c.assignment[0], lo_label) << "t=" << t;
    EXPECT_NEAR(c.centroids(lo_label, 0), 0.3, 0.05) << "t=" << t;
    EXPECT_NEAR(c.centroids(1 - lo_label, 0), 0.7, 0.05) << "t=" << t;
  }
}

TEST(DynamicCluster, MembershipSwitchIsTracked) {
  // Move half of the low group to the high group mid-run; their labels
  // must change while the cluster labels themselves stay aligned.
  Tracked tracker({.k = 2}, 4);
  Rng rng(4);
  const Clustering& first = tracker.update(two_groups(0.2, 0.8, 10, rng));
  const std::size_t lo_label = first.assignment[0];
  const std::size_t hi_label = first.assignment[10];

  for (std::size_t t = 1; t < 5; ++t) {
    tracker.update(two_groups(0.2, 0.8, 10, rng));
  }
  // Points 0..4 migrate to the high level.
  Matrix migrated = two_groups(0.2, 0.8, 10, rng);
  for (std::size_t i = 0; i < 5; ++i) migrated(i, 0) = 0.8;
  const Clustering& after = tracker.update(migrated);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(after.assignment[i], hi_label);
  }
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_EQ(after.assignment[i], lo_label);
  }
}

TEST(DynamicCluster, NodeCountMustStayConstant) {
  Tracked tracker({.k = 2}, 7);
  Rng rng(7);
  tracker.update(two_groups(0.2, 0.8, 5, rng));
  EXPECT_THROW(tracker.update(two_groups(0.2, 0.8, 6, rng)),
               InvalidArgument);
}

TEST(DynamicCluster, TooFewPointsThrows) {
  Tracked tracker({.k = 5}, 8);
  EXPECT_THROW(tracker.update(Matrix(3, 1)), InvalidArgument);
}

TEST(DynamicCluster, SeparateFeatureAndValueSpaces) {
  // Cluster on a 2-step window feature but report centroids in value space.
  Tracked tracker({.k = 2}, 9);
  Rng rng(9);
  const Matrix values = two_groups(0.2, 0.8, 6, rng);
  Matrix features(12, 2);
  for (std::size_t i = 0; i < 12; ++i) {
    features(i, 0) = values(i, 0);
    features(i, 1) = values(i, 0);
  }
  tracker.history.advance().values = values;
  const Clustering& c = tracker.update(features, tracker.history);
  EXPECT_EQ(c.centroids.cols(), 1u);
  const std::size_t lo = c.assignment[0];
  EXPECT_NEAR(c.centroids(lo, 0), 0.2, 0.05);
}

TEST(DynamicCluster, JaccardSimilarityAlsoKeepsLabelsStable) {
  Tracked tracker({.k = 2, .similarity = SimilarityKind::kJaccard}, 10);
  Rng rng(10);
  const Clustering& first = tracker.update(two_groups(0.2, 0.8, 10, rng));
  const std::size_t lo_label = first.assignment[0];
  for (std::size_t t = 1; t < 20; ++t) {
    const Clustering& c = tracker.update(two_groups(0.2, 0.8, 10, rng));
    EXPECT_EQ(c.assignment[0], lo_label) << "t=" << t;
  }
}

// Property sweep over M: deeper similarity lookback must still keep labels
// of persistent groups stable.
class LookbackTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LookbackTest, StableUnderLookbackM) {
  const std::size_t m = GetParam();
  Tracked tracker({.k = 3, .history_m = m}, 11);
  Rng rng(11 + m);
  auto three_groups = [&]() {
    Matrix points(15, 1);
    for (std::size_t i = 0; i < 5; ++i) {
      points(i, 0) = 0.1 + rng.normal(0.0, 0.01);
      points(5 + i, 0) = 0.5 + rng.normal(0.0, 0.01);
      points(10 + i, 0) = 0.9 + rng.normal(0.0, 0.01);
    }
    return points;
  };
  const Clustering& first = tracker.update(three_groups());
  const std::size_t labels[3] = {first.assignment[0], first.assignment[5],
                                 first.assignment[10]};
  for (std::size_t t = 1; t < 25; ++t) {
    const Clustering& c = tracker.update(three_groups());
    EXPECT_EQ(c.assignment[0], labels[0]);
    EXPECT_EQ(c.assignment[5], labels[1]);
    EXPECT_EQ(c.assignment[10], labels[2]);
    // The caller's M + 1 deep history keeps the M clusterings re-indexing
    // reads plus the newest.
    const std::size_t steps = t + 1;
    EXPECT_EQ(tracker.steps(), steps);
    const ClusterHistory& history = tracker.history;
    EXPECT_EQ(history.size(), std::min(steps, m + 1)) << "t=" << t;
    EXPECT_THROW(history.at(history.size()), InvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(Ms, LookbackTest, ::testing::Values(1, 2, 5, 12));

// -- edge cases, observed through the emitted metrics ------------------------

TEST(DynamicClusterMetrics, KEqualToNodeCountYieldsSingletons) {
  obs::MetricsRegistry reg;
  Tracked tracker({.k = 3, .metrics = &reg, .metrics_view = "a"}, 12);
  Matrix points(3, 1);
  points(0, 0) = 0.0;
  points(1, 0) = 0.5;
  points(2, 0) = 1.0;
  const Clustering& c = tracker.update(points);
  const std::set<std::size_t> labels(c.assignment.begin(),
                                     c.assignment.end());
  EXPECT_EQ(labels.size(), 3u);  // every node its own cluster
  const Labels view = {{"view", "a"}};
  EXPECT_EQ(reg.value("resmon_cluster_updates_total", view), 1.0);
  EXPECT_EQ(reg.value("resmon_cluster_empty_clusters", view), 0.0);
  EXPECT_GT(reg.value("resmon_cluster_kmeans_iterations_total", view), 0.0);
}

TEST(DynamicClusterMetrics, KLargerThanNodesThrowsWithoutCountingUpdate) {
  obs::MetricsRegistry reg;
  Tracked tracker({.k = 5, .metrics = &reg, .metrics_view = "a"}, 13);
  EXPECT_THROW(tracker.update(Matrix(3, 1)), InvalidArgument);
  // The failed update must not leak into the series.
  EXPECT_EQ(reg.value("resmon_cluster_updates_total", {{"view", "a"}}), 0.0);
}

TEST(DynamicClusterMetrics, RepairedEmptyClusterReadsZeroOnTheGauge) {
  // Two coincident points and one far away with K = 3: naive K-means can
  // leave a centroid memberless, but the empty-cluster repair must not —
  // and the gauge is how that invariant is monitored in production.
  obs::MetricsRegistry reg;
  Tracked tracker({.k = 3, .metrics = &reg, .metrics_view = "a"}, 14);
  Matrix points(3, 1);
  points(0, 0) = 0.0;
  points(1, 0) = 0.0;
  points(2, 0) = 10.0;
  const Clustering& c = tracker.update(points);
  std::vector<std::size_t> member_count(3, 0);
  for (const std::size_t j : c.assignment) ++member_count[j];
  for (std::size_t j = 0; j < 3; ++j) EXPECT_GE(member_count[j], 1u);
  EXPECT_EQ(reg.value("resmon_cluster_empty_clusters", {{"view", "a"}}), 0.0);
}

TEST(DynamicClusterMetrics, DegenerateHungarianAllEqualWeights) {
  // Step 1 groups {0,1} vs {2,3}; step 2 regroups {0,2} vs {1,3}. Every
  // (new, old) cluster pair then shares exactly one node, so the eq. (10)
  // similarity matrix is all-ones and any permutation is optimal. The
  // tracker must still produce a valid one-to-one re-indexing and report
  // the degenerate total weight of 2 on the gauge.
  obs::MetricsRegistry reg;
  Tracked tracker(
      {.k = 2, .history_m = 1, .metrics = &reg, .metrics_view = "a"}, 15);
  Matrix step1(4, 1);
  step1(0, 0) = 0.0;
  step1(1, 0) = 0.0;
  step1(2, 0) = 10.0;
  step1(3, 0) = 10.0;
  tracker.update(step1);

  Matrix step2(4, 1);
  step2(0, 0) = 0.0;
  step2(1, 0) = 10.0;
  step2(2, 0) = 0.0;
  step2(3, 0) = 10.0;
  const Clustering& c = tracker.update(step2);
  const std::set<std::size_t> labels(c.assignment.begin(),
                                     c.assignment.end());
  EXPECT_EQ(labels.size(), 2u);
  EXPECT_EQ(c.assignment[0], c.assignment[2]);
  EXPECT_EQ(c.assignment[1], c.assignment[3]);
  EXPECT_NE(c.assignment[0], c.assignment[1]);

  const Labels view = {{"view", "a"}};
  EXPECT_EQ(reg.value("resmon_cluster_match_weight", view), 2.0);
  EXPECT_EQ(reg.value("resmon_cluster_updates_total", view), 2.0);
  // Exactly two of the four nodes kept their step-1 label under any
  // optimal permutation of the all-ones weight matrix.
  EXPECT_EQ(reg.value("resmon_cluster_reassignments_total", view), 2.0);
}

}  // namespace
}  // namespace resmon::cluster
