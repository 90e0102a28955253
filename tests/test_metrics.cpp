#include "core/metrics.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace resmon::core {
namespace {

TEST(RmseStep, ZeroForIdenticalMatrices) {
  Matrix a{{0.1, 0.2}, {0.3, 0.4}};
  EXPECT_DOUBLE_EQ(rmse_step(a, a), 0.0);
}

TEST(RmseStep, MatchesHandComputedValue) {
  // Two nodes, one resource: errors 0.3 and 0.4.
  Matrix truth{{0.0}, {0.0}};
  Matrix est{{0.3}, {0.4}};
  // sqrt((0.09 + 0.16) / 2) = sqrt(0.125)
  EXPECT_NEAR(rmse_step(truth, est), std::sqrt(0.125), 1e-12);
}

TEST(RmseStep, NormRunsOverResourceDimensions) {
  // One node, two resources: ||e||^2 = 0.09 + 0.16 = 0.25.
  Matrix truth{{0.0, 0.0}};
  Matrix est{{0.3, 0.4}};
  EXPECT_NEAR(rmse_step(truth, est), 0.5, 1e-12);
}

TEST(RmseStep, ShapeMismatchThrows) {
  EXPECT_THROW(rmse_step(Matrix(2, 1), Matrix(3, 1)), InvalidArgument);
  EXPECT_THROW(rmse_step(Matrix(2, 1), Matrix(2, 2)), InvalidArgument);
  EXPECT_THROW(rmse_step(Matrix(), Matrix()), InvalidArgument);
}

TEST(RmseAccumulator, EmptyIsZero) {
  RmseAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.value(), 0.0);
  EXPECT_EQ(acc.count(), 0u);
}

TEST(RmseAccumulator, AveragesSquaresNotValues) {
  // Eq. (4): sqrt(mean of squared per-step RMSEs).
  RmseAccumulator acc;
  acc.add(3.0);
  acc.add(4.0);
  EXPECT_NEAR(acc.value(), std::sqrt((9.0 + 16.0) / 2.0), 1e-12);
  EXPECT_EQ(acc.count(), 2u);
}

TEST(RmseAccumulator, SingleValuePassesThrough) {
  RmseAccumulator acc;
  acc.add(0.125);
  EXPECT_DOUBLE_EQ(acc.value(), 0.125);
}

TEST(IntermediateRmse, ZeroWhenDataEqualsCentroids) {
  cluster::Clustering c;
  c.assignment = {0, 1};
  c.centroids = Matrix{{0.2}, {0.8}};
  Matrix truth{{0.2}, {0.8}};
  EXPECT_DOUBLE_EQ(intermediate_rmse_step(truth, c), 0.0);
}

TEST(IntermediateRmse, MeasuresDistanceToAssignedCentroid) {
  cluster::Clustering c;
  c.assignment = {0, 0};
  c.centroids = Matrix{{0.5}, {0.0}};
  Matrix truth{{0.4}, {0.6}};
  // errors: 0.1 and 0.1 -> rmse = 0.1
  EXPECT_NEAR(intermediate_rmse_step(truth, c), 0.1, 1e-12);
}

TEST(IntermediateRmse, ValidatesShapes) {
  cluster::Clustering c;
  c.assignment = {0};
  c.centroids = Matrix{{0.5, 0.5}};
  EXPECT_THROW(intermediate_rmse_step(Matrix(2, 2), c), InvalidArgument);
  EXPECT_THROW(intermediate_rmse_step(Matrix(1, 1), c), InvalidArgument);
}

}  // namespace
}  // namespace resmon::core
