// The comparator experiments of sim/: the §VI-E monitor experiment (Fig. 12,
// Table IV) and the compressed-sensing experiment. Each is checked against
// an oracle that pools every (node, step) squared error under one square
// root; with every scored step covering all N nodes, that equals eq. (4)
// over eq. (3) up to rounding.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.hpp"
#include "common/rng.hpp"
#include "gaussian/gaussian_model.hpp"
#include "sim/completion_experiment.hpp"
#include "sim/monitor_experiment.hpp"
#include "trace/synthetic.hpp"

namespace resmon::sim {
namespace {

// ---- monitor experiment ---------------------------------------------------

trace::InMemoryTrace experiment_trace() {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 30;
  p.num_steps = 450;
  return trace::generate(p, 11);
}

TEST(MonitorExperiment, AllMethodsProduceFiniteRmse) {
  const trace::InMemoryTrace t = experiment_trace();
  MonitorExperimentOptions opts;
  opts.num_monitors = 5;
  opts.train_steps = 200;
  opts.test_steps = 200;
  for (const MonitorMethod method :
       {MonitorMethod::kProposed, MonitorMethod::kMinimumDistance,
        MonitorMethod::kTopW, MonitorMethod::kTopWUpdate,
        MonitorMethod::kBatchSelection}) {
    const MonitorExperimentResult r =
        run_monitor_experiment(t, method, opts);
    EXPECT_TRUE(std::isfinite(r.rmse)) << to_string(method);
    EXPECT_GT(r.rmse, 0.0) << to_string(method);
    EXPECT_LT(r.rmse, 1.0) << to_string(method);
    EXPECT_EQ(r.monitors.size(), 5u) << to_string(method);
    EXPECT_GE(r.selection_seconds, 0.0);
  }
}

TEST(MonitorExperiment, MoreMonitorsHelpProposedMethod) {
  const trace::InMemoryTrace t = experiment_trace();
  MonitorExperimentOptions few;
  few.num_monitors = 2;
  few.train_steps = 200;
  few.test_steps = 200;
  MonitorExperimentOptions many = few;
  many.num_monitors = 20;
  const double rmse_few =
      run_monitor_experiment(t, MonitorMethod::kProposed, few).rmse;
  const double rmse_many =
      run_monitor_experiment(t, MonitorMethod::kProposed, many).rmse;
  EXPECT_LT(rmse_many, rmse_few);
}

TEST(MonitorExperiment, ValidatesOptions) {
  const trace::InMemoryTrace t = experiment_trace();
  MonitorExperimentOptions opts;
  opts.train_steps = 400;
  opts.test_steps = 400;  // 800 > 450 steps
  EXPECT_THROW(run_monitor_experiment(t, MonitorMethod::kProposed, opts),
               InvalidArgument);
  opts.test_steps = 50;
  opts.resource = 9;
  EXPECT_THROW(run_monitor_experiment(t, MonitorMethod::kProposed, opts),
               InvalidArgument);
  opts.resource = 0;
  opts.num_monitors = 30;
  EXPECT_THROW(run_monitor_experiment(t, MonitorMethod::kProposed, opts),
               InvalidArgument);
}

TEST(MonitorExperiment, MethodNamesMatchPaper) {
  EXPECT_EQ(to_string(MonitorMethod::kProposed), "Proposed");
  EXPECT_EQ(to_string(MonitorMethod::kTopWUpdate), "Top-W-Update");
  EXPECT_EQ(to_string(MonitorMethod::kBatchSelection), "Batch Selection");
}

/// The test-phase RMSE pooled over every (node, step): node i at step t is
/// estimated by `owner` (cluster methods: the value of monitor owner[i]) or
/// by `model`'s conditional mean given the monitors.
double pooled_test_rmse(const trace::Trace& t,
                        const MonitorExperimentOptions& o,
                        const std::vector<std::size_t>& monitors,
                        const std::vector<std::size_t>& owner,
                        const gaussian::GaussianModel* model) {
  double se = 0.0;
  std::size_t count = 0;
  std::vector<double> observed(monitors.size());
  for (std::size_t s = o.train_steps; s < o.train_steps + o.test_steps; ++s) {
    for (std::size_t m = 0; m < monitors.size(); ++m) {
      observed[m] = t.value(monitors[m], s, o.resource);
    }
    const std::vector<double> inferred =
        model != nullptr ? model->infer(monitors, observed)
                         : std::vector<double>();
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      const double estimate =
          model != nullptr ? inferred[i] : observed[owner[i]];
      const double e = estimate - t.value(i, s, o.resource);
      se += e * e;
      ++count;
    }
  }
  return std::sqrt(se / static_cast<double>(count));
}

TEST(MonitorExperiment, EveryMethodMatchesThePooledRmse) {
  const trace::InMemoryTrace t = experiment_trace();
  MonitorExperimentOptions o;
  o.num_monitors = 5;
  o.train_steps = 200;
  o.test_steps = 200;
  o.seed = 3;
  const std::size_t n = t.num_nodes();
  Matrix points(n, o.train_steps);  // one row per node
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < o.train_steps; ++s) {
      points(i, s) = t.value(i, s, o.resource);
    }
  }
  const auto expect_pooled = [&](MonitorMethod method,
                                 const std::vector<std::size_t>& owner,
                                 const gaussian::GaussianModel* model) {
    const MonitorExperimentResult r = run_monitor_experiment(t, method, o);
    const double pooled = pooled_test_rmse(t, o, r.monitors, owner, model);
    EXPECT_NEAR(r.rmse, pooled, 1e-12 * pooled) << to_string(method);
    return r.monitors;
  };

  // Proposed: a node is estimated by the monitor of its K-means cluster.
  Rng km_rng(o.seed);
  expect_pooled(MonitorMethod::kProposed,
                cluster::kmeans(points, o.num_monitors, km_rng).assignment,
                nullptr);

  // Minimum distance: K monitors by a partial Fisher-Yates draw, each node
  // estimated by its nearest monitor on the training series.
  Rng draw(o.seed);
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  for (std::size_t j = 0; j < o.num_monitors; ++j) {
    std::swap(ids[j], ids[j + draw.index(n - j)]);
  }
  const std::vector<std::size_t> drawn(ids.begin(),
                                       ids.begin() + o.num_monitors);
  std::vector<std::size_t> nearest(n);
  for (std::size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::max();
    for (std::size_t m = 0; m < drawn.size(); ++m) {
      const double d2 = squared_distance(points.row(i), points.row(drawn[m]));
      if (d2 < best) {
        best = d2;
        nearest[i] = m;
      }
    }
  }
  EXPECT_EQ(expect_pooled(MonitorMethod::kMinimumDistance, nearest, nullptr),
            drawn);

  // Gaussian methods: conditional-mean inference from the training fit.
  const gaussian::GaussianModel model =
      gaussian::GaussianModel::fit(points.transposed());
  for (const MonitorMethod method :
       {MonitorMethod::kTopW, MonitorMethod::kTopWUpdate,
        MonitorMethod::kBatchSelection}) {
    expect_pooled(method, {}, &model);
  }
}

// ---- compressed-sensing experiment ---------------------------------------

TEST(CompletionExperiment, RunsAndBeatsNothing) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 30;
  p.num_steps = 400;
  const trace::InMemoryTrace t = trace::generate(p, 4);
  const CompletionExperimentResult r = run_completion_experiment(
      t, 0, 0.3, 48, {.rank = 4, .iterations = 8});
  EXPECT_TRUE(std::isfinite(r.rmse));
  EXPECT_GT(r.rmse, 0.0);
  EXPECT_LT(r.rmse, 0.6);
  EXPECT_NEAR(r.actual_sample_rate, 0.3, 0.03);
  EXPECT_GT(r.hold_rmse, 0.0);
}

TEST(CompletionExperiment, Validates) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 5;
  p.num_steps = 50;
  const trace::InMemoryTrace t = trace::generate(p, 5);
  EXPECT_THROW(run_completion_experiment(t, 9, 0.3, 10), InvalidArgument);
  EXPECT_THROW(run_completion_experiment(t, 0, 0.0, 10), InvalidArgument);
  EXPECT_THROW(run_completion_experiment(t, 0, 0.3, 1), InvalidArgument);
  EXPECT_THROW(run_completion_experiment(t, 0, 0.3, 99), InvalidArgument);
}

TEST(CompletionExperiment, MatchesThePooledRmse) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 20;
  p.num_steps = 200;
  const trace::InMemoryTrace t = trace::generate(p, 6);
  const std::size_t resource = 1;
  const std::size_t window = 24;
  const std::size_t stride = 3;
  const double rate = 0.4;
  const completion::CompletionOptions options{.rank = 3, .iterations = 6,
                                              .seed = 7};
  const CompletionExperimentResult r = run_completion_experiment(
      t, resource, rate, window, options, stride);

  // The same sampling and reconstruction, every squared error pooled.
  const std::size_t n = t.num_nodes();
  Rng rng(options.seed + 1);
  std::vector<double> held(n, 0.0);
  Matrix values(n, window);
  std::vector<bool> mask(n * window, false);
  double se_completion = 0.0;
  double se_hold = 0.0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < t.num_steps(); ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c + 1 < window; ++c) {
        values(i, c) = values(i, c + 1);
        mask[i * window + c] = mask[i * window + c + 1];
      }
      values(i, window - 1) = 0.0;
      mask[i * window + window - 1] = false;
      if (s != 0 && !rng.bernoulli(rate)) continue;
      values(i, window - 1) = held[i] = t.value(i, s, resource);
      mask[i * window + window - 1] = true;
    }
    if (s < window || s % stride != 0) continue;
    const Matrix completed = completion::complete_matrix(values, mask, options);
    for (std::size_t i = 0; i < n; ++i) {
      const double truth = t.value(i, s, resource);
      const double ec = completed(i, window - 1) - truth;
      const double eh = held[i] - truth;
      se_completion += ec * ec;
      se_hold += eh * eh;
      ++count;
    }
  }
  const double completion_rmse =
      std::sqrt(se_completion / static_cast<double>(count));
  const double hold_rmse = std::sqrt(se_hold / static_cast<double>(count));
  EXPECT_NEAR(r.rmse, completion_rmse, 1e-12 * completion_rmse);
  EXPECT_NEAR(r.hold_rmse, hold_rmse, 1e-12 * hold_rmse);
}

}  // namespace
}  // namespace resmon::sim
