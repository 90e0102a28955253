#include "core/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/evaluate.hpp"
#include "trace/trace.hpp"

namespace resmon::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// An N x d matrix whose entries cycle through `pool`, offset by `shift`.
Matrix cycling(std::size_t n, std::size_t d, const std::vector<double>& pool,
               std::size_t shift) {
  Matrix m(n, d);
  for (std::size_t k = 0; k < n * d; ++k) {
    m.data()[k] = pool[(k * 3 + shift) % pool.size()];
  }
  return m;
}

/// Values with signed zeros on both sides, so an error of -0.0 - 0.0 and
/// the square of -0.0 are scored.
const std::vector<double> kPool{-0.0, 0.25, 0.0,  0.7,  -0.0, 0.125,
                                1.0,  0.3,  0.05, -0.0, 0.9};

/// The per-resource loop the experiment harnesses carried before they
/// scored through rmse_step: one column of a row-major N x d block.
double hand_column_rmse(const Matrix& truth, std::span<const double> estimate,
                        std::size_t r) {
  double se = 0.0;
  for (std::size_t i = 0; i < truth.rows(); ++i) {
    const double e = estimate[i * truth.cols() + r] - truth(i, r);
    se += e * e;
  }
  return std::sqrt(se / static_cast<double>(truth.rows()));
}

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

TEST(RmseStep, ColumnFormMatchesTheHandLoopBitwise) {
  for (const std::size_t d : {1u, 2u, 4u}) {
    const Matrix truth = cycling(7, d, kPool, 0);
    const Matrix estimate = cycling(7, d, kPool, 5);
    for (std::size_t r = 0; r < d; ++r) {
      const double column = rmse_step(truth, estimate.data(), r);
      EXPECT_EQ(bits(column),
                bits(hand_column_rmse(truth, estimate.data(), r)))
          << "d = " << d << ", column " << r;
      // The same score as the full form on the two N x 1 columns.
      Matrix truth_r(7, 1);
      Matrix estimate_r(7, 1);
      for (std::size_t i = 0; i < 7; ++i) {
        truth_r(i, 0) = truth(i, r);
        estimate_r(i, 0) = estimate(i, r);
      }
      EXPECT_EQ(bits(column), bits(rmse_step(truth_r, estimate_r)));
    }
  }
}

TEST(RmseStep, BlockFormMatchesTheMatrixFormBitwise) {
  for (const std::size_t d : {1u, 2u, 4u}) {
    const Matrix truth = cycling(7, d, kPool, 1);
    const Matrix estimate = cycling(7, d, kPool, 4);
    // A row-major block held outside any Matrix, as CentralStore::values().
    const std::vector<double> block = estimate.data();
    const double score = rmse_step(truth, block);
    EXPECT_EQ(bits(score), bits(rmse_step(truth, estimate))) << "d = " << d;
    // The store-vs-truth loops of the d > 1 ablations summed every (node,
    // resource) term into one total; eq. (3) takes each node's norm first,
    // as here. At d = 1 the two are the same loop.
    double se = 0.0;
    for (std::size_t i = 0; i < 7; ++i) {
      double node = 0.0;
      for (std::size_t r = 0; r < d; ++r) {
        const double e = block[i * d + r] - truth(i, r);
        node += e * e;
      }
      se += node;
    }
    EXPECT_EQ(bits(score), bits(std::sqrt(se / 7.0))) << "d = " << d;
  }
}

TEST(RmseStep, BlockFormsValidateShapeAndColumn) {
  const Matrix truth(3, 2);
  const std::vector<double> block(6, 0.0);
  EXPECT_THROW(rmse_step(truth, std::vector<double>(5, 0.0)),
               InvalidArgument);
  EXPECT_THROW(rmse_step(truth, std::vector<double>(5, 0.0), 0),
               InvalidArgument);
  EXPECT_THROW(rmse_step(truth, block, 2), InvalidArgument);
  EXPECT_THROW(rmse_step(Matrix(), std::vector<double>{}), InvalidArgument);
  EXPECT_DOUBLE_EQ(rmse_step(truth, block, 1), 0.0);
}

TEST(RmseAccumulator, EmptyIsNaN) {
  // An average over no slot is no score at all, never a perfect one.
  RmseAccumulator acc;
  EXPECT_TRUE(std::isnan(acc.value()));
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

TEST(RmseAccumulator, EqualSizedSlotsGiveThePooledRmse) {
  // With N nodes in every slot, eq. (4) over eq. (3) is the RMSE pooled
  // over every (node, slot): the form the comparator experiments replaced.
  RmseAccumulator acc;
  double se = 0.0;
  std::size_t count = 0;
  for (std::size_t slot = 0; slot < 7; ++slot) {
    const Matrix truth = cycling(5, 2, kPool, slot);
    const Matrix estimate = cycling(5, 2, kPool, 2 * slot + 1);
    acc.add(rmse_step(truth, estimate));
    for (std::size_t k = 0; k < truth.data().size(); ++k) {
      const double e = estimate.data()[k] - truth.data()[k];
      se += e * e;
    }
    count += truth.rows();
  }
  const double pooled = std::sqrt(se / static_cast<double>(count));
  EXPECT_NEAR(acc.value(), pooled, 1e-12 * pooled);
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

TEST(TruthAt, MatchesTraceValueAtAnUnequalShape) {
  // 5 nodes x 4 steps x 3 resources, every value distinct.
  trace::InMemoryTrace trace(5, 4, 3);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t t = 0; t < 4; ++t) {
      for (std::size_t r = 0; r < 3; ++r) {
        trace.set_value(i, t, r, 0.01 * static_cast<double>(i) +
                                     0.1 * static_cast<double>(t) +
                                     0.001 * static_cast<double>(r));
      }
    }
  }
  trace.set_value(2, 3, 1, -0.0);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t first = 0; first < 3; ++first) {
      for (std::size_t count = 1; first + count <= 3; ++count) {
        const Matrix m = sim::truth_at(trace, t, first, count);
        ASSERT_EQ(m.rows(), 5u);
        ASSERT_EQ(m.cols(), count);
        for (std::size_t i = 0; i < 5; ++i) {
          for (std::size_t r = 0; r < count; ++r) {
            EXPECT_EQ(bits(m(i, r)), bits(trace.value(i, t, first + r)))
                << "t " << t << ", first " << first << ", count " << count;
          }
        }
      }
    }
  }
  EXPECT_THROW(sim::truth_at(trace, 4, 0, 1), InvalidArgument);
  EXPECT_THROW(sim::truth_at(trace, 0, 2, 2), InvalidArgument);
}

}  // namespace
}  // namespace resmon::core
