#include "core/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "faultnet/faulty_link.hpp"
#include "sim/driver.hpp"
#include "sim/evaluate.hpp"
#include "trace/synthetic.hpp"

namespace resmon::core {
namespace {

using sim::Driver;

trace::InMemoryTrace small_trace(std::size_t nodes = 20,
                                 std::size_t steps = 300,
                                 std::uint64_t seed = 42) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = nodes;
  p.num_steps = steps;
  return trace::generate(p, seed);
}

PipelineOptions fast_options() {
  PipelineOptions o;
  o.num_clusters = 3;
  o.schedule = {.initial_steps = 50, .retrain_interval = 100};
  return o;
}

/// A pipeline shaped like `t`, fed by hand.
MonitoringPipeline shaped_like(const trace::Trace& t,
                               const PipelineOptions& o) {
  return MonitoringPipeline(t.num_nodes(), t.num_resources(), o);
}

/// Every node's measurement of trace step `source`, sent as slot `slot`.
std::vector<transport::MeasurementMessage> full_slot(const trace::Trace& t,
                                                     std::size_t source,
                                                     std::size_t slot) {
  std::vector<transport::MeasurementMessage> messages;
  for (std::size_t node = 0; node < t.num_nodes(); ++node) {
    messages.push_back({.node = node,
                        .step = slot,
                        .values = t.measurement(node, source)});
  }
  return messages;
}

TEST(Pipeline, ValidatesOptions) {
  const trace::InMemoryTrace t = small_trace();
  PipelineOptions o = fast_options();
  o.num_clusters = 0;
  EXPECT_THROW(shaped_like(t, o), InvalidArgument);
  o = fast_options();
  o.num_clusters = 100;  // > N
  EXPECT_THROW(shaped_like(t, o), InvalidArgument);
  o = fast_options();
  o.temporal_window = 0;
  EXPECT_THROW(shaped_like(t, o), InvalidArgument);
}

TEST(Pipeline, StepAdvancesAndStopsAtTraceEnd) {
  const trace::InMemoryTrace t = small_trace(10, 30);
  Driver d(t, fast_options());
  EXPECT_EQ(d.pipeline().current_step(), 0u);
  d.run(30);
  EXPECT_TRUE(d.done());
  EXPECT_EQ(d.pipeline().current_step(), 30u);
  EXPECT_THROW(d.step(), InvalidArgument);
}

TEST(Pipeline, PerResourceViewsByDefault) {
  const trace::InMemoryTrace t = small_trace(10, 20);
  Driver d(t, fast_options());
  d.run(5);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_EQ(p.num_views(), t.num_resources());
  EXPECT_EQ(p.tracker(0).k(), 3u);
  EXPECT_THROW(p.tracker(5), InvalidArgument);
}

TEST(Pipeline, JointClusteringUsesOneView) {
  const trace::InMemoryTrace t = small_trace(10, 20);
  PipelineOptions o = fast_options();
  o.cluster_per_resource = false;
  Driver d(t, o);
  d.run(5);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_EQ(p.num_views(), 1u);
}

TEST(Pipeline, ForecastBeforeStepThrows) {
  const trace::InMemoryTrace t = small_trace(10, 20);
  const MonitoringPipeline p = shaped_like(t, fast_options());
  EXPECT_THROW(p.forecast_all(0), InvalidArgument);
}

TEST(Pipeline, HorizonZeroReturnsStoredMeasurements) {
  const trace::InMemoryTrace t = small_trace(10, 20);
  PipelineOptions o = fast_options();
  o.policy = collect::PolicyKind::kAlways;  // store always fresh
  Driver d(t, o);
  d.run(7);
  const MonitoringPipeline& p = d.pipeline();
  const Matrix z = p.forecast_all(0);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      EXPECT_DOUBLE_EQ(z(i, r), t.value(i, 6, r));
    }
  }
  EXPECT_NEAR(sim::rmse_at(p, t, 0), 0.0, 1e-12);
}

TEST(Pipeline, WithB1AndKNRmseAtZeroIsZero) {
  // Full transmission and one cluster per node: stored state is exact.
  const trace::InMemoryTrace t = small_trace(8, 15);
  PipelineOptions o = fast_options();
  o.policy = collect::PolicyKind::kAlways;
  o.num_clusters = 8;
  Driver d(t, o);
  d.run(10);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_NEAR(sim::rmse_at(p, t, 0), 0.0, 1e-12);
  // And the intermediate RMSE reflects only clustering granularity (here
  // every node its own cluster, fresh data -> 0).
  EXPECT_NEAR(sim::intermediate_rmse(p, t), 0.0, 1e-9);
}

TEST(Pipeline, ForecastsAreFiniteAndInPlausibleRange) {
  const trace::InMemoryTrace t = small_trace(15, 120);
  Driver d(t, fast_options());
  d.run(80);
  const MonitoringPipeline& p = d.pipeline();
  for (const std::size_t h : {1u, 5u, 20u}) {
    const Matrix f = p.forecast_all(h);
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      for (std::size_t r = 0; r < t.num_resources(); ++r) {
        EXPECT_TRUE(std::isfinite(f(i, r)));
        EXPECT_GT(f(i, r), -0.5);
        EXPECT_LT(f(i, r), 1.5);
      }
    }
  }
}

TEST(Pipeline, RmseAtValidatesBounds) {
  const trace::InMemoryTrace t = small_trace(10, 30);
  Driver d(t, fast_options());
  d.run(30);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_THROW(sim::rmse_at(p, t, 5), InvalidArgument);  // t_last + 5 >= 30
  EXPECT_NO_THROW(sim::rmse_at(p, t, 0));
}

TEST(Pipeline, ModelsObserveEveryStep) {
  const trace::InMemoryTrace t = small_trace(12, 60);
  Driver d(t, fast_options());
  d.run(60);
  const MonitoringPipeline& p = d.pipeline();
  for (std::size_t v = 0; v < p.num_views(); ++v) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(p.model(v, j).observations(), 60u);
    }
  }
  EXPECT_THROW(p.model(0, 9), InvalidArgument);
}

TEST(Pipeline, ModelHistoryIsTheTrackersCentroidSeries) {
  // Each model's history is its cluster's centroid series: one value per
  // clustered slot, the newest bitwise equal to the tracker's newest
  // centroid. A lossy uplink stretches warm-up past the first slot, so the
  // series must skip the slots that were not clustered.
  const trace::InMemoryTrace t = small_trace(12, 80, 9);
  for (const bool per_resource : {true, false}) {
    PipelineOptions o = fast_options();
    o.cluster_per_resource = per_resource;
    Driver d(t, o, faultnet::FaultSpec::parse("drop=0.2;seed=5"));
    const MonitoringPipeline& p = d.pipeline();
    const std::size_t dims = per_resource ? 1 : t.num_resources();
    std::size_t clustered = 0;
    for (std::size_t slot = 0; slot < t.num_steps(); ++slot) {
      d.step();
      if (!p.central_store().complete()) continue;
      ++clustered;
      for (std::size_t v = 0; v < p.num_views(); ++v) {
        const cluster::Clustering& newest = p.history(v).at(0).clustering;
        for (std::size_t j = 0; j < o.num_clusters; ++j) {
          for (std::size_t dim = 0; dim < dims; ++dim) {
            const std::span<const double> series =
                p.model(v, j, dim).history();
            ASSERT_EQ(series.size(), clustered) << "slot " << slot;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(series.back()),
                      std::bit_cast<std::uint64_t>(newest.centroids(j, dim)))
                << "per_resource " << per_resource << ", slot " << slot
                << ", view " << v << ", cluster " << j << ", dim " << dim;
          }
        }
      }
    }
    EXPECT_LT(clustered, t.num_steps() - 1) << "warm-up lasted one slot";
    EXPECT_EQ(p.tracker(0).steps(), clustered);
  }
}

TEST(Pipeline, ModelsFitOnSchedule) {
  const trace::InMemoryTrace t = small_trace(12, 120);
  PipelineOptions o = fast_options();
  o.schedule = {.initial_steps = 40, .retrain_interval = 30};
  Driver d(t, o);
  d.run(120);
  const MonitoringPipeline& p = d.pipeline();
  // Fits at 40, 70, 100 -> 3 fits.
  EXPECT_EQ(p.model(0, 0).fits_completed(), 3u);
}

TEST(Pipeline, SampleHoldForecastHoldsCentroids) {
  const trace::InMemoryTrace t = small_trace(10, 80);
  PipelineOptions o = fast_options();
  o.schedule = {.initial_steps = 10, .retrain_interval = 50};
  Driver d(t, o);
  d.run(60);
  const MonitoringPipeline& p = d.pipeline();
  // Sample-and-hold: forecast is independent of horizon.
  const Matrix f1 = p.forecast_all(1);
  const Matrix f9 = p.forecast_all(9);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      EXPECT_DOUBLE_EQ(f1(i, r), f9(i, r));
    }
  }
}

TEST(Pipeline, TemporalWindowFeaturesPadWarmupAndHaveWindowedDims) {
  // Fig. 5 path: clustering features concatenate the last `temporal_window`
  // stored snapshots. Early steps, where the history is shorter than the
  // window, must pad with the oldest available snapshot instead of reading
  // uninitialized slots.
  const trace::InMemoryTrace t = small_trace(12, 40);
  PipelineOptions o = fast_options();
  o.temporal_window = 4;
  o.policy = collect::PolicyKind::kAlways;  // store complete from step 0
  Driver d(t, o);
  const MonitoringPipeline& p = d.pipeline();

  d.step();
  // One snapshot in history: N x (view_dims * window) with every slot a
  // copy of the only snapshot.
  Matrix f = p.view_features(0);
  ASSERT_EQ(f.rows(), t.num_nodes());
  ASSERT_EQ(f.cols(), 4u);  // per-resource views: view_dims = 1
  for (std::size_t i = 0; i < f.rows(); ++i) {
    for (std::size_t slot = 0; slot < 4; ++slot) {
      EXPECT_TRUE(std::isfinite(f(i, slot)));
      EXPECT_DOUBLE_EQ(f(i, slot), f(i, 0)) << "warm-up padding";
    }
    EXPECT_DOUBLE_EQ(f(i, 0), t.value(i, 0, 0));
  }

  d.step();
  // Two snapshots: slot 0 = newest, slot 1 = previous, slots 2..3 padded
  // with the oldest (= slot 1's snapshot).
  f = p.view_features(0);
  ASSERT_EQ(f.cols(), 4u);
  for (std::size_t i = 0; i < f.rows(); ++i) {
    EXPECT_DOUBLE_EQ(f(i, 0), t.value(i, 1, 0));
    EXPECT_DOUBLE_EQ(f(i, 1), t.value(i, 0, 0));
    EXPECT_DOUBLE_EQ(f(i, 2), f(i, 1));
    EXPECT_DOUBLE_EQ(f(i, 3), f(i, 1));
  }

  // Past warm-up the window is fully populated with distinct snapshots.
  d.run(10);
  f = p.view_features(0);
  const std::size_t last = p.current_step() - 1;
  for (std::size_t i = 0; i < f.rows(); ++i) {
    for (std::size_t slot = 0; slot < 4; ++slot) {
      EXPECT_DOUBLE_EQ(f(i, slot), t.value(i, last - slot, 0));
    }
  }

  // Joint clustering: features are (num_resources * window) wide.
  PipelineOptions joint = o;
  joint.cluster_per_resource = false;
  Driver pj_driver(t, joint);
  pj_driver.run(3);
  const MonitoringPipeline& pj = pj_driver.pipeline();
  EXPECT_EQ(pj.view_features(0).cols(), t.num_resources() * 4);
}

TEST(Pipeline, ViewFeaturesThrowBeforeTheFirstClusteredSlot) {
  // No snapshot is recorded until the central store is complete: before
  // any step, and while a late node keeps the store incomplete, there are
  // no features to read.
  const trace::InMemoryTrace t = small_trace(4, 10);
  PipelineOptions o = fast_options();
  o.temporal_window = 3;
  MonitoringPipeline p = shaped_like(t, o);
  EXPECT_THROW(p.view_features(0), InvalidArgument);
  EXPECT_THROW(p.view_features(t.num_resources()), InvalidArgument);

  const auto message = [&](std::size_t node, std::size_t step) {
    return transport::MeasurementMessage{
        .node = node, .step = step, .values = t.measurement(node, step)};
  };
  // Node 0's slot-0 measurement is late: it arrives with slot 2.
  for (std::size_t slot = 0; slot < 2; ++slot) {
    std::vector<transport::MeasurementMessage> messages;
    for (std::size_t node = 1; node < t.num_nodes(); ++node) {
      messages.push_back(message(node, slot));
    }
    p.step_external(messages);
    ASSERT_FALSE(p.central_store().complete());
    EXPECT_THROW(p.view_features(0), InvalidArgument) << "slot " << slot;
    EXPECT_TRUE(p.history(0).empty());
  }
  const std::vector<transport::MeasurementMessage> late{message(0, 0)};
  p.step_external(late);
  const Matrix f = p.view_features(0);
  EXPECT_EQ(f.cols(), 3u);
  EXPECT_EQ(f(0, 0), t.value(0, 0, 0));
  EXPECT_EQ(p.history(0).size(), 1u);
}

TEST(Pipeline, HistoryDepthCoversWindowAndLookbacks) {
  // One history per view serves the temporal window (ages 0..W-1), the
  // re-indexing (ages 1..M) and the estimation (ages 0..M'), so it is
  // max(W, M + 1, M' + 1) deep.
  struct Depths {
    std::size_t w, m, m_prime;
  };
  const trace::InMemoryTrace t = small_trace(12, 60);
  for (const Depths c : {Depths{1, 1, 5}, Depths{30, 1, 5}, Depths{1, 7, 0},
                         Depths{4, 3, 2}}) {
    SCOPED_TRACE(::testing::Message()
                 << "W " << c.w << " M " << c.m << " M' " << c.m_prime);
    PipelineOptions o = fast_options();
    o.temporal_window = c.w;
    o.similarity_lookback = c.m;
    o.offset_lookback = c.m_prime;
    Driver d(t, o);
    const MonitoringPipeline& p = d.pipeline();
    const std::size_t depth = std::max({c.w, c.m + 1, c.m_prime + 1});
    for (std::size_t v = 0; v < p.num_views(); ++v) {
      EXPECT_EQ(p.history(v).depth(), depth);
    }
    d.run(depth + 20);
    for (std::size_t v = 0; v < p.num_views(); ++v) {
      EXPECT_EQ(p.history(v).size(), depth);
      EXPECT_EQ(p.tracker(v).steps(), depth + 20);
    }
    EXPECT_EQ(p.view_features(0).cols(), c.w);
    const Matrix f = p.forecast_all(1);
    for (const double x : f.data()) EXPECT_TRUE(std::isfinite(x));
    EXPECT_TRUE(std::isfinite(sim::intermediate_rmse(p, t)));
  }
  EXPECT_THROW(shaped_like(t, fast_options()).history(9),
               InvalidArgument);
}

TEST(Pipeline, TemporalWindowRunsAndClusters) {
  const trace::InMemoryTrace t = small_trace(12, 50);
  PipelineOptions o = fast_options();
  o.temporal_window = 5;
  Driver d(t, o);
  d.run(50);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_EQ(p.tracker(0).steps(), 50u);
  EXPECT_TRUE(std::isfinite(sim::intermediate_rmse(p, t)));
}

TEST(Pipeline, IntermediateRmseSmallWhenClustersMatchGroups) {
  // A trace with 3 crisp groups and K=3 must yield a small intermediate
  // RMSE when everything is transmitted.
  trace::InMemoryTrace t(9, 40, 1);
  for (std::size_t step = 0; step < 40; ++step) {
    for (std::size_t i = 0; i < 3; ++i) t.set_value(i, step, 0, 0.1);
    for (std::size_t i = 3; i < 6; ++i) t.set_value(i, step, 0, 0.5);
    for (std::size_t i = 6; i < 9; ++i) t.set_value(i, step, 0, 0.9);
  }
  PipelineOptions o = fast_options();
  o.policy = collect::PolicyKind::kAlways;
  Driver d(t, o);
  d.run(40);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_NEAR(sim::intermediate_rmse(p, t), 0.0, 1e-9);
}

TEST(Pipeline, PerDimensionIntermediateRmseSplitsTheAggregate) {
  // Each dimension's squared intermediate RMSE is its share of the
  // aggregate's: per-resource views split it by view, a joint view by
  // dimension.
  const trace::InMemoryTrace t = small_trace(15, 40);
  for (const bool per_resource : {true, false}) {
    PipelineOptions o = fast_options();
    o.cluster_per_resource = per_resource;
    Driver d(t, o);
    d.run(40);
    const MonitoringPipeline& p = d.pipeline();
    double sum = 0.0;
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      const double part = per_resource ? sim::intermediate_rmse(p, t, r, 0)
                                       : sim::intermediate_rmse(p, t, 0, r);
      sum += part * part;
    }
    const double all = sim::intermediate_rmse(p, t);
    EXPECT_GT(all, 0.0);
    EXPECT_NEAR(sum, all * all, 1e-12) << "per_resource " << per_resource;
    const std::size_t dims = per_resource ? 1 : t.num_resources();
    EXPECT_THROW(sim::intermediate_rmse(p, t, 0, dims), InvalidArgument);
  }
}

TEST(Pipeline, OffsetImprovesOverBareCentroid) {
  // Nodes have persistent offsets from their group mean; eq. (12) should
  // pull per-node forecasts toward the true values compared to centroid-only.
  trace::InMemoryTrace t(6, 60, 1);
  const double offsets[6] = {-0.05, 0.0, 0.05, -0.05, 0.0, 0.05};
  for (std::size_t step = 0; step < 60; ++step) {
    for (std::size_t i = 0; i < 3; ++i) {
      t.set_value(i, step, 0, 0.3 + offsets[i]);
    }
    for (std::size_t i = 3; i < 6; ++i) {
      t.set_value(i, step, 0, 0.7 + offsets[i]);
    }
  }
  PipelineOptions o = fast_options();
  o.policy = collect::PolicyKind::kAlways;
  o.num_clusters = 2;
  o.schedule = {.initial_steps = 10, .retrain_interval = 100};
  Driver d(t, o);
  d.run(59);
  const MonitoringPipeline& p = d.pipeline();
  // Forecast h=1: with constant signals the centroid forecast is exact for
  // the group mean; adding the offset should land on each node's value.
  const Matrix f = p.forecast_all(1);
  for (std::size_t i = 0; i < 6; ++i) {
    const double truth = t.value(i, 59, 0);
    EXPECT_NEAR(f(i, 0), truth, 0.02) << "node " << i;
  }
}

TEST(Pipeline, DeterministicGivenSeed) {
  const trace::InMemoryTrace t = small_trace(10, 60);
  PipelineOptions o = fast_options();
  o.seed = 7;
  Driver a(t, o);
  Driver b(t, o);
  a.run(60);
  b.run(60);
  const Matrix fa = a.pipeline().forecast_all(3);
  const Matrix fb = b.pipeline().forecast_all(3);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      EXPECT_DOUBLE_EQ(fa(i, r), fb(i, r));
    }
  }
}

TEST(Pipeline, DeadbandPolicyRunsEndToEnd) {
  const trace::InMemoryTrace t = small_trace(12, 150);
  PipelineOptions o = fast_options();
  o.policy = collect::PolicyKind::kDeadband;
  Driver d(t, o);
  d.run(150);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_TRUE(d.done());
  EXPECT_GT(d.collector().average_actual_frequency(), 0.0);
  EXPECT_TRUE(std::isfinite(sim::rmse_at(p, t, 0)));
}

TEST(Pipeline, DisablingOffsetChangesForecasts) {
  const trace::InMemoryTrace t = small_trace(15, 120);
  PipelineOptions with = fast_options();
  PipelineOptions without = fast_options();
  without.use_offset = false;
  Driver a(t, with);
  Driver b(t, without);
  a.run(120);
  b.run(120);
  const Matrix fa = a.pipeline().forecast_all(3);
  const Matrix fb = b.pipeline().forecast_all(3);
  bool any_diff = false;
  for (std::size_t i = 0; i < t.num_nodes() && !any_diff; ++i) {
    any_diff = fa(i, 0) != fb(i, 0);
  }
  EXPECT_TRUE(any_diff);
  // Without the offset, all members of one cluster share one forecast:
  // there can be at most K distinct values per resource.
  std::set<double> distinct;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) distinct.insert(fb(i, 0));
  EXPECT_LE(distinct.size(), without.num_clusters);
}

TEST(Pipeline, ReindexingOffStillRuns) {
  const trace::InMemoryTrace t = small_trace(12, 80);
  PipelineOptions o = fast_options();
  o.reindex_clusters = false;
  Driver d(t, o);
  d.run(80);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_TRUE(std::isfinite(sim::intermediate_rmse(p, t)));
}

TEST(Pipeline, HoltWintersForecasterIntegrates) {
  const trace::InMemoryTrace t = small_trace(10, 150);
  PipelineOptions o = fast_options();
  o.forecaster = forecast::ForecasterKind::kHoltWinters;
  Driver d(t, o);
  d.run(150);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_GT(p.model(0, 0).fits_completed(), 0u);
  EXPECT_TRUE(std::isfinite(sim::rmse_at(p, t, 0)));
}

TEST(Pipeline, LowerBGivesNoLowerAccuracyThanTinyB) {
  // More bandwidth should not hurt: B=0.5 h=0 error <= B=0.05 h=0 error
  // (time-averaged).
  const trace::InMemoryTrace t = small_trace(15, 200, 3);
  auto run_with_b = [&](double b) {
    PipelineOptions o = fast_options();
    o.max_frequency = b;
    Driver d(t, o);
    const MonitoringPipeline& p = d.pipeline();
    RmseAccumulator acc;
    for (std::size_t step = 0; step < 200; ++step) {
      d.step();
      acc.add(sim::rmse_at(p, t, 0));
    }
    return acc.value();
  };
  EXPECT_LE(run_with_b(0.5), run_with_b(0.05) + 1e-6);
}

TEST(Pipeline, StageTimersSplitOneRunBySubtraction) {
  // The stage gauges count from construction, so one run's split is the
  // difference of the reads around it.
  const trace::InMemoryTrace t = small_trace(10, 60);
  Driver d(t, fast_options());
  const auto split = [&](std::size_t count) {
    const StageTimers before = d.pipeline().stage_timers();
    d.run(count);
    const StageTimers after = d.pipeline().stage_timers();
    return StageTimers{
        .collect_seconds = after.collect_seconds - before.collect_seconds,
        .cluster_seconds = after.cluster_seconds - before.cluster_seconds,
        .forecast_seconds = after.forecast_seconds - before.forecast_seconds};
  };
  const StageTimers first = split(30);
  EXPECT_GT(first.collect_seconds, 0.0);  // produce + apply
  EXPECT_GT(first.total_seconds(), 0.0);

  // run(0) processes nothing, so its split is exactly zero while the
  // gauges still hold the first run.
  const StageTimers none = split(0);
  EXPECT_EQ(none.collect_seconds, 0.0);
  EXPECT_EQ(none.cluster_seconds, 0.0);
  EXPECT_EQ(none.forecast_seconds, 0.0);
  EXPECT_EQ(d.pipeline().stage_timers().cluster_seconds,
            first.cluster_seconds);

  // A second run's split is its own; the gauges hold both.
  const StageTimers second = split(30);
  EXPECT_GT(second.total_seconds(), 0.0);
  EXPECT_NEAR(d.pipeline().stage_timers().total_seconds(),
              first.total_seconds() + second.total_seconds(), 1e-9);
}

TEST(Pipeline, MetricsExposeStepAndStageSeries) {
  const trace::InMemoryTrace t = small_trace(10, 40);
  obs::MetricsRegistry registry;
  PipelineOptions o = fast_options();
  o.metrics = &registry;
  Driver d(t, o);
  d.run(40);
  const MonitoringPipeline& p = d.pipeline();
  EXPECT_EQ(&p.metrics(), &registry);
  EXPECT_EQ(registry.value("resmon_pipeline_steps_total"), 40.0);
  EXPECT_EQ(registry.value("resmon_pipeline_warmup_slots_total"), 0.0);
  EXPECT_EQ(registry.value("resmon_pipeline_stage_seconds",
                           {{"stage", "cluster"}}),
            p.stage_timers().cluster_seconds);
  // Component series flow into the same registry.
  EXPECT_GT(registry.value("resmon_collect_decisions_total"), 0.0);
  EXPECT_GT(registry.value("resmon_cluster_updates_total", {{"view", "0"}}),
            0.0);
}

TEST(Pipeline, TraceEventsRecordOneSpanPerStage) {
  // Enough nodes that producing a slot takes measurable microseconds.
  const trace::InMemoryTrace t = small_trace(400, 20);
  obs::TraceBuffer buffer(256);
  PipelineOptions o = fast_options();
  o.trace_events = &buffer;
  Driver d(t, o);
  d.run(20);
  std::size_t produce = 0, collect = 0, cluster = 0, forecast = 0;
  std::uint64_t collect_stage_us = 0;
  for (const obs::TraceEvent& e : buffer.snapshot()) {
    if (e.name == "sim.produce") ++produce;
    if (e.name == "pipeline.collect") ++collect;
    if (e.name == "pipeline.cluster") ++cluster;
    if (e.name == "pipeline.forecast") ++forecast;
    if (e.name == "sim.produce" || e.name == "pipeline.collect") {
      collect_stage_us += e.dur_us;
    }
  }
  EXPECT_EQ(produce, 20u);
  EXPECT_EQ(collect, 20u);
  EXPECT_EQ(cluster, 20u);
  EXPECT_EQ(forecast, 20u);
  // The collect stage covers producing the slot as well as applying it
  // (events truncate to whole microseconds, so they sum to no more).
  EXPECT_GE(d.pipeline().stage_timers().collect_seconds,
            1e-6 * static_cast<double>(collect_stage_us));
}

TEST(Pipeline, StepExternalRejectsMessagesFromLaterSlots) {
  const trace::InMemoryTrace t = small_trace(4, 10);
  MonitoringPipeline p = shaped_like(t, fast_options());
  const auto message = [&](std::size_t node, std::size_t step) {
    return transport::MeasurementMessage{
        .node = node, .step = step, .values = t.measurement(node, step)};
  };
  const std::vector<transport::MeasurementMessage> future{message(0, 1)};
  EXPECT_THROW(p.step_external(future), InvalidArgument);
  EXPECT_EQ(p.current_step(), 0u);
  EXPECT_FALSE(p.central_store().has(0));

  // Node 0's slot-0 measurement is late: it arrives with slot 2.
  for (std::size_t slot = 0; slot < 2; ++slot) {
    std::vector<transport::MeasurementMessage> messages;
    for (std::size_t node = 1; node < t.num_nodes(); ++node) {
      messages.push_back(message(node, slot));
    }
    p.step_external(messages);
  }
  EXPECT_FALSE(p.central_store().complete());
  const std::vector<transport::MeasurementMessage> late{message(0, 0)};
  p.step_external(late);
  EXPECT_EQ(p.current_step(), 3u);
  EXPECT_TRUE(p.central_store().complete());
  EXPECT_EQ(p.central_store().last_update_step(0), 0u);
  const std::span<const double> stored = p.central_store().stored(0);
  EXPECT_EQ(std::vector<double>(stored.begin(), stored.end()),
            t.measurement(0, 0));
  EXPECT_EQ(p.metrics().value("resmon_pipeline_warmup_slots_total"), 2.0);
  EXPECT_EQ(p.metrics().value("resmon_collect_store_complete"), 1.0);
}

TEST(Pipeline, StepMatchesStepExternalOnTheCollectorsSlots) {
  // The in-process driver is step_external() on its collector's slots:
  // feeding a pipeline from a standalone collector through the same fault
  // stage gives the same warm-up, losses and bit-identical forecasts, under
  // drop, delay, duplication and reordering.
  const trace::InMemoryTrace t = small_trace(12, 200, 8);
  PipelineOptions o = fast_options();
  o.forecaster = forecast::ForecasterKind::kArima;
  o.schedule = {.initial_steps = 40, .retrain_interval = 30};
  const faultnet::FaultSpec spec = faultnet::FaultSpec::parse(
      "drop=0.2;delay=0.6667:2;dup=0.3;reorder=0.5;seed=5");
  Driver in_process(t, o, spec);
  MonitoringPipeline external = shaped_like(t, o);
  const auto policies =
      collect::make_policy_factory(o.policy, o.max_frequency);
  collect::FleetCollector fleet(t, policies);
  faultnet::FaultyLink faults(spec);
  const auto warmup = [](const MonitoringPipeline& p) {
    return p.metrics().value("resmon_pipeline_warmup_slots_total").value();
  };
  const MonitoringPipeline& driven = in_process.pipeline();
  std::size_t compared = 0;
  for (std::size_t slot = 0; slot < t.num_steps(); ++slot) {
    in_process.step();
    for (const transport::MeasurementMessage& m : fleet.step(slot)) {
      faults.send(m);
    }
    external.step_external(faults.drain());
    ASSERT_EQ(warmup(driven), warmup(external)) << "slot " << slot;
    if (!driven.central_store().complete()) continue;
    for (const std::size_t h : {0, 1, 3}) {
      ASSERT_EQ(driven.forecast_all(h).data(), external.forecast_all(h).data())
          << "slot " << slot << ", h = " << h;
    }
    ++compared;
  }
  EXPECT_GT(warmup(driven), 1.0);
  EXPECT_GT(compared, 100u);
  EXPECT_GT(faults.messages_dropped(), 0u);
  const auto injected = [&](const char* kind) {
    return driven.metrics()
        .value("resmon_faultnet_injected_total", {{"fault", kind}})
        .value_or(0.0);
  };
  EXPECT_GT(injected("duplicate"), 0.0);
  EXPECT_GT(injected("reorder"), 0.0);
  ASSERT_NE(in_process.faults(), nullptr);
  EXPECT_EQ(in_process.faults()->messages_dropped(),
            faults.messages_dropped());
  EXPECT_GE(driven.model(0, 0).fits_completed(), 2u);
}

TEST(Pipeline, TraceCtorMatchesShapeCtor) {
  // The trace constructor (the benchmark's spelling) only reads the
  // trace's shape: over a run, both pipelines' forecasts and histories
  // stay bitwise equal.
  const trace::InMemoryTrace t = small_trace(12, 120, 4);
  PipelineOptions o = fast_options();
  o.forecaster = forecast::ForecasterKind::kArima;
  o.schedule = {.initial_steps = 30, .retrain_interval = 25};
  MonitoringPipeline from_trace(t, o, ExternalCollection{});
  MonitoringPipeline from_shape = shaped_like(t, o);
  collect::FleetCollector fleet(
      t, collect::make_policy_factory(o.policy, o.max_frequency));
  for (std::size_t slot = 0; slot < t.num_steps(); ++slot) {
    const std::span<const transport::MeasurementMessage> sent =
        fleet.step(slot);
    from_trace.step_external(sent);
    from_shape.step_external(sent);
    for (const std::size_t h : {0, 1, 5}) {
      ASSERT_EQ(from_trace.forecast_all(h).data(),
                from_shape.forecast_all(h).data())
          << "slot " << slot << ", h = " << h;
    }
  }
  for (std::size_t v = 0; v < from_shape.num_views(); ++v) {
    const cluster::HistoryStep& a = from_trace.history(v).at(0);
    const cluster::HistoryStep& b = from_shape.history(v).at(0);
    EXPECT_EQ(a.values.data(), b.values.data());
    EXPECT_EQ(a.clustering.assignment, b.clustering.assignment);
    EXPECT_EQ(a.clustering.centroids.data(), b.clustering.centroids.data());
    for (std::size_t j = 0; j < o.num_clusters; ++j) {
      const std::span<const double> ha = from_trace.model(v, j).history();
      const std::span<const double> hb = from_shape.model(v, j).history();
      ASSERT_EQ(ha.size(), t.num_steps());
      EXPECT_TRUE(std::equal(ha.begin(), ha.end(), hb.begin(), hb.end()));
    }
  }
  EXPECT_GE(from_shape.model(0, 0).fits_completed(), 2u);
}

TEST(Pipeline, ShapeBuiltPipelineOutlivesItsTruthTrace) {
  // Nothing in the pipeline ends with a trace: fed by hand, it consumes
  // more slots than the trace it is scored against holds, and the
  // evaluator rejects any t + h past that trace.
  const trace::InMemoryTrace t = small_trace(6, 10);
  MonitoringPipeline p = shaped_like(t, fast_options());
  for (std::size_t slot = 0; slot < 5; ++slot) {
    p.step_external(full_slot(t, slot, slot));
  }
  EXPECT_NO_THROW(sim::rmse_at(p, t, 5));  // t + h = 9, the last step
  EXPECT_THROW(sim::rmse_at(p, t, 6), InvalidArgument);
  EXPECT_NEAR(sim::rmse_at(p, t, 0), 0.0, 1e-12);  // always-sent store

  for (std::size_t slot = 5; slot < 3 * t.num_steps(); ++slot) {
    p.step_external(full_slot(t, slot % t.num_steps(), slot));
  }
  EXPECT_EQ(p.current_step(), 3 * t.num_steps());
  EXPECT_THROW(sim::rmse_at(p, t, 0), InvalidArgument);
  EXPECT_THROW(sim::intermediate_rmse(p, t), InvalidArgument);
  EXPECT_THROW(sim::intermediate_rmse(p, t, 0, 0), InvalidArgument);
  const Matrix f = p.forecast_all(1);
  for (const double x : f.data()) EXPECT_TRUE(std::isfinite(x));

  // A truth trace of another shape is rejected too.
  const trace::InMemoryTrace fewer_nodes = small_trace(5, 40);
  const trace::InMemoryTrace one_resource(6, 40, 1);
  for (const trace::Trace* other : {&fewer_nodes, &one_resource}) {
    EXPECT_THROW(sim::rmse_at(p, *other, 0), InvalidArgument);
    EXPECT_THROW(sim::intermediate_rmse(p, *other), InvalidArgument);
  }
}

}  // namespace
}  // namespace resmon::core
