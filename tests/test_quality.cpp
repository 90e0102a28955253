#include "cluster/quality.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace resmon::cluster {
namespace {

/// Two tight, well-separated 1-D blobs.
Matrix two_blobs(Rng& rng, std::size_t per_blob = 10) {
  Matrix points(2 * per_blob, 1);
  for (std::size_t i = 0; i < per_blob; ++i) {
    points(i, 0) = 0.1 + rng.normal(0.0, 0.01);
    points(per_blob + i, 0) = 0.9 + rng.normal(0.0, 0.01);
  }
  return points;
}

std::vector<std::size_t> two_blob_labels(std::size_t per_blob = 10) {
  std::vector<std::size_t> a(2 * per_blob, 0);
  for (std::size_t i = per_blob; i < 2 * per_blob; ++i) a[i] = 1;
  return a;
}

TEST(Silhouette, HighForWellSeparatedBlobs) {
  Rng rng(1);
  const Matrix points = two_blobs(rng);
  EXPECT_GT(silhouette(points, two_blob_labels(), 2), 0.9);
}

TEST(Silhouette, LowForRandomLabels) {
  Rng rng(2);
  const Matrix points = two_blobs(rng);
  std::vector<std::size_t> labels(20);
  for (auto& l : labels) l = rng.index(2);
  EXPECT_LT(silhouette(points, labels, 2),
            silhouette(points, two_blob_labels(), 2));
}

TEST(Silhouette, SplittingATightBlobScoresWorse) {
  Rng rng(3);
  const Matrix points = two_blobs(rng);
  // 3-way split of the low blob: 0/2 labels alternate within it.
  std::vector<std::size_t> labels = two_blob_labels();
  for (std::size_t i = 0; i < 10; i += 2) labels[i] = 2;
  EXPECT_LT(silhouette(points, labels, 3),
            silhouette(points, two_blob_labels(), 2));
}

TEST(Silhouette, Validates) {
  Matrix points(4, 1);
  EXPECT_THROW(silhouette(points, {0, 0, 0}, 2), InvalidArgument);
  EXPECT_THROW(silhouette(points, {0, 0, 0, 0}, 1), InvalidArgument);
  EXPECT_THROW(silhouette(points, {0, 0, 0, 5}, 2), InvalidArgument);
}

TEST(ChooseK, FindsTheTrueBlobCount) {
  Rng rng(6);
  // Three well-separated blobs.
  Matrix points(30, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    points(i, 0) = 0.1 + rng.normal(0.0, 0.01);
    points(10 + i, 0) = 0.5 + rng.normal(0.0, 0.01);
    points(20 + i, 0) = 0.9 + rng.normal(0.0, 0.01);
  }
  const KSelection sel = choose_k(points, 2, 6, rng);
  EXPECT_EQ(sel.best_k, 3u);
  EXPECT_EQ(sel.ks.size(), 5u);
  // Inertia is non-increasing in K.
  for (std::size_t i = 1; i < sel.inertias.size(); ++i) {
    EXPECT_LE(sel.inertias[i], sel.inertias[i - 1] + 1e-9);
  }
}

TEST(ChooseK, ValidatesRange) {
  Matrix points(5, 1);
  Rng rng(7);
  EXPECT_THROW(choose_k(points, 1, 3, rng), InvalidArgument);
  EXPECT_THROW(choose_k(points, 3, 2, rng), InvalidArgument);
  EXPECT_THROW(choose_k(points, 2, 9, rng), InvalidArgument);
  // Zero-dimensional points (a sample step longer than the trace) would
  // score every K as 0.
  EXPECT_THROW(choose_k(Matrix(5, 0), 2, 3, rng), InvalidArgument);
}

}  // namespace
}  // namespace resmon::cluster
