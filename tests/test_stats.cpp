#include "common/stats.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace resmon::stats {
namespace {

TEST(Stats, MeanOfKnownValues) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceOfConstantIsZero) {
  const std::vector<double> x{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(variance(x), 0.0);
  EXPECT_DOUBLE_EQ(sample_variance(x), 0.0);
}

TEST(Stats, PopulationVsSampleVariance) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_NEAR(variance(x), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(sample_variance(x), 1.0, 1e-12);
}

TEST(Stats, StddevIsSqrtOfVariance) {
  const std::vector<double> x{1.0, 5.0, 9.0, 2.0};
  EXPECT_NEAR(stddev(x), std::sqrt(variance(x)), 1e-12);
}

TEST(Stats, MinMax) {
  const std::vector<double> x{4.0, -1.0, 7.5, 0.0};
  EXPECT_DOUBLE_EQ(min(x), -1.0);
  EXPECT_DOUBLE_EQ(max(x), 7.5);
}

TEST(Stats, MinOfEmptyThrows) {
  EXPECT_THROW(min(std::vector<double>{}), InvalidArgument);
}

TEST(Stats, PearsonPerfectPositive) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonOfConstantSeriesIsZero) {
  const std::vector<double> x{1.0, 1.0, 1.0};
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonIsSymmetric) {
  Rng rng(7);
  std::vector<double> x(50), y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x[i] = rng.normal();
    y[i] = 0.5 * x[i] + rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), pearson(y, x), 1e-12);
  EXPECT_GT(pearson(x, y), 0.0);
  EXPECT_LE(std::fabs(pearson(x, y)), 1.0);
}

TEST(Stats, PearsonLengthMismatchThrows) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_THROW(pearson(x, y), InvalidArgument);
}

TEST(Stats, SampleCovarianceMatchesManual) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{2.0, 2.0, 5.0};
  // means: 2, 3; cov = ((-1)(-1) + 0 + (1)(2)) / 2 = 1.5
  EXPECT_NEAR(sample_covariance(x, y), 1.5, 1e-12);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  const std::vector<double> x{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> x{0.0, 10.0};
  EXPECT_NEAR(quantile(x, 0.25), 2.5, 1e-12);
}

TEST(Stats, EmpiricalCdfStepsThroughSamples) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(100.0), 1.0);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  Rng rng(4);
  std::vector<double> samples(300);
  for (double& v : samples) v = rng.normal();
  EmpiricalCdf cdf(samples);
  double prev = 0.0;
  for (double x = -4.0; x <= 4.0; x += 0.1) {
    const double f = cdf(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Stats, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829304, 1e-6);
  EXPECT_NEAR(normal_quantile(0.8413447461), 1.0, 1e-6);
}

TEST(Stats, NormalQuantileSymmetry) {
  for (const double p : {0.01, 0.1, 0.3, 0.45}) {
    EXPECT_NEAR(normal_quantile(p), -normal_quantile(1.0 - p), 1e-9);
  }
}

TEST(Stats, NormalQuantileTails) {
  EXPECT_NEAR(normal_quantile(1e-6), -4.753424309, 1e-5);
  EXPECT_LT(normal_quantile(1e-10), normal_quantile(1e-6));
}

TEST(Stats, NormalQuantileValidates) {
  EXPECT_THROW(normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), InvalidArgument);
}

// Property sweep: pearson of a series with a scaled/shifted copy is +/-1.
class PearsonScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(PearsonScaleTest, AffineTransformPreservesMagnitude) {
  const double scale = GetParam();
  Rng rng(11);
  std::vector<double> x(100), y(100);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = scale * x[i] + 7.0;
  }
  const double r = pearson(x, y);
  EXPECT_NEAR(r, scale > 0 ? 1.0 : -1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, PearsonScaleTest,
                         ::testing::Values(-3.0, -0.5, 0.25, 1.0, 10.0));

}  // namespace
}  // namespace resmon::stats
