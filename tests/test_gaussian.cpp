#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gaussian/gaussian_model.hpp"
#include "gaussian/selection.hpp"
#include "trace/synthetic.hpp"

namespace resmon::gaussian {
namespace {

/// Training matrix for 3 correlated nodes: node1 = node0 + tiny noise,
/// node2 independent.
Matrix correlated_train(std::size_t steps, std::uint64_t seed) {
  Rng rng(seed);
  Matrix train(steps, 3);
  for (std::size_t t = 0; t < steps; ++t) {
    const double base = rng.normal(0.5, 0.1);
    train(t, 0) = base;
    train(t, 1) = base + rng.normal(0.0, 0.01);
    train(t, 2) = rng.normal(0.5, 0.1);
  }
  return train;
}

TEST(GaussianModel, FitEstimatesMeanAndVariance) {
  Rng rng(1);
  Matrix train(4000, 2);
  for (std::size_t t = 0; t < 4000; ++t) {
    train(t, 0) = rng.normal(0.3, 0.1);
    train(t, 1) = rng.normal(0.7, 0.2);
  }
  const GaussianModel m = GaussianModel::fit(train);
  EXPECT_NEAR(m.mean()[0], 0.3, 0.01);
  EXPECT_NEAR(m.mean()[1], 0.7, 0.02);
  EXPECT_NEAR(m.covariance()(0, 0), 0.01, 0.002);
  EXPECT_NEAR(m.covariance()(1, 1), 0.04, 0.005);
  EXPECT_NEAR(m.covariance()(0, 1), 0.0, 0.002);
}

TEST(GaussianModel, FitRequiresTwoSamples) {
  EXPECT_THROW(GaussianModel::fit(Matrix(1, 3)), InvalidArgument);
}

TEST(GaussianModel, InferenceUsesCorrelation) {
  const GaussianModel m = GaussianModel::fit(correlated_train(2000, 2));
  // Observe node 0 high; node 1 (strongly correlated) should be inferred
  // close to it; node 2 (independent) should stay near its mean.
  const std::vector<double> inferred = m.infer({0}, std::vector<double>{0.9});
  EXPECT_NEAR(inferred[1], 0.9, 0.05);
  EXPECT_NEAR(inferred[2], 0.5, 0.05);
  EXPECT_DOUBLE_EQ(inferred[0], 0.9);  // monitors keep observed values
}

TEST(GaussianModel, InferenceValidatesInput) {
  const GaussianModel m = GaussianModel::fit(correlated_train(100, 3));
  EXPECT_THROW(m.infer({}, std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(m.infer({0, 1}, std::vector<double>{0.1}), InvalidArgument);
  EXPECT_THROW(m.infer({9}, std::vector<double>{0.1}), InvalidArgument);
}

TEST(GaussianModel, ConditionalVarianceDropsWithMoreMonitors) {
  const GaussianModel m = GaussianModel::fit(correlated_train(1000, 4));
  const double v1 = m.conditional_variance({0});
  const double v2 = m.conditional_variance({0, 2});
  EXPECT_GE(v1, v2 - 1e-12);
  EXPECT_GE(v2, 0.0);
}

TEST(GaussianModel, MonitoringCorrelatedNodeExplainsItsTwin) {
  const GaussianModel m = GaussianModel::fit(correlated_train(2000, 5));
  // Monitoring node 0 should leave little residual variance at node 1 but
  // nearly full variance at node 2.
  const double v = m.conditional_variance({0});
  const double var2 = m.covariance()(2, 2);
  EXPECT_LT(v, var2 * 1.2);
  EXPECT_GT(v, var2 * 0.8);  // node 2 unexplained, node 1 ~ free
}

// ---- online estimation -----------------------------------------------------

TEST(OnlineGaussian, MatchesBatchFitExactly) {
  const Matrix train = correlated_train(300, 20);
  OnlineGaussianModel online(3);
  std::vector<double> row(3);
  for (std::size_t t = 0; t < train.rows(); ++t) {
    for (std::size_t i = 0; i < 3; ++i) row[i] = train(t, i);
    online.observe(row);
  }
  const GaussianModel batch = GaussianModel::fit(train, 1e-6);
  const GaussianModel streamed = online.finalize(1e-6);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(streamed.mean()[i], batch.mean()[i], 1e-10);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(streamed.covariance()(i, j), batch.covariance()(i, j),
                  1e-10);
    }
  }
}

TEST(OnlineGaussian, CovarianceStaysSymmetric) {
  Rng rng(21);
  OnlineGaussianModel online(4);
  std::vector<double> row(4);
  for (int t = 0; t < 50; ++t) {
    for (double& v : row) v = rng.uniform();
    online.observe(row);
  }
  const GaussianModel m = online.finalize();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m.covariance()(i, j), m.covariance()(j, i));
    }
  }
}

TEST(OnlineGaussian, Validates) {
  EXPECT_THROW(OnlineGaussianModel(0), InvalidArgument);
  OnlineGaussianModel online(2);
  EXPECT_THROW(online.observe(std::vector<double>{0.1}), InvalidArgument);
  EXPECT_THROW(online.finalize(), InvalidArgument);  // no samples yet
  online.observe(std::vector<double>{0.1, 0.2});
  EXPECT_THROW(online.finalize(), InvalidArgument);  // one sample
  online.observe(std::vector<double>{0.3, 0.4});
  EXPECT_NO_THROW(online.finalize());
  EXPECT_EQ(online.samples(), 2u);
}

// ---- selection -----------------------------------------------------------

TEST(Selection, TopWPicksHighWeightNodes) {
  const GaussianModel m = GaussianModel::fit(correlated_train(2000, 6));
  // Nodes 0/1 carry mutual covariance mass; a single Top-W monitor must be
  // one of them, not the independent node 2.
  const std::vector<std::size_t> monitors = select_top_w(m, 1);
  EXPECT_NE(monitors[0], 2u);
}

TEST(Selection, ResultsAreSortedUniqueAndInRange) {
  const GaussianModel m = GaussianModel::fit(correlated_train(500, 7));
  Rng rng(7);
  for (const auto& monitors :
       {select_top_w(m, 2), select_top_w_update(m, 2),
        select_batch(m, 2, rng)}) {
    EXPECT_EQ(monitors.size(), 2u);
    EXPECT_TRUE(std::is_sorted(monitors.begin(), monitors.end()));
    std::set<std::size_t> uniq(monitors.begin(), monitors.end());
    EXPECT_EQ(uniq.size(), 2u);
    for (const std::size_t mtr : monitors) EXPECT_LT(mtr, 3u);
  }
}

TEST(Selection, TopWUpdateAvoidsRedundantMonitors) {
  // With K=2, greedy variance reduction should pick one of the twins and
  // the independent node — not both twins.
  const GaussianModel m = GaussianModel::fit(correlated_train(2000, 8));
  const std::vector<std::size_t> monitors = select_top_w_update(m, 2);
  EXPECT_TRUE(std::find(monitors.begin(), monitors.end(), 2u) !=
              monitors.end());
}

TEST(Selection, BatchIsAtLeastAsGoodAsTopW) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 20;
  p.num_steps = 300;
  const trace::InMemoryTrace t = trace::generate(p, 9);
  Matrix train(300, 20);
  for (std::size_t s = 0; s < 300; ++s) {
    for (std::size_t i = 0; i < 20; ++i) train(s, i) = t.value(i, s, 0);
  }
  const GaussianModel m = GaussianModel::fit(train);
  Rng rng(9);
  const double v_topw = m.conditional_variance(select_top_w(m, 4));
  const double v_batch =
      m.conditional_variance(select_batch(m, 4, rng, 3, 16));
  EXPECT_LE(v_batch, v_topw + 1e-9);
}

TEST(Selection, ValidatesK) {
  const GaussianModel m = GaussianModel::fit(correlated_train(100, 10));
  Rng rng(10);
  EXPECT_THROW(select_top_w(m, 0), InvalidArgument);
  EXPECT_THROW(select_top_w(m, 3), InvalidArgument);  // K must be < N
  EXPECT_THROW(select_top_w_update(m, 0), InvalidArgument);
  EXPECT_THROW(select_batch(m, 5, rng), InvalidArgument);
}

}  // namespace
}  // namespace resmon::gaussian
