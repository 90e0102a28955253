#include "core/pipeline.hpp"

#include <algorithm>
#include <thread>

#include "core/estimation.hpp"

namespace resmon::core {

MonitoringPipeline::MonitoringPipeline(std::size_t nodes,
                                       std::size_t resources,
                                       const PipelineOptions& options)
    : options_(options),
      store_(nodes, resources),
      registry_(options.metrics) {
  RESMON_REQUIRE(options.num_clusters >= 1 && options.num_clusters <= nodes,
                 "K must be in [1, N]");
  RESMON_REQUIRE(options.temporal_window >= 1,
                 "temporal window must be >= 1");
  RESMON_REQUIRE(options.similarity_lookback >= 1, "M must be >= 1");

  const std::size_t threads =
      options_.num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options_.num_threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);

  const char* stage_help =
      "Wall-clock seconds spent in this stage since the pipeline was built";
  stage_collect_ = &registry_->gauge("resmon_pipeline_stage_seconds",
                                     stage_help, {{"stage", "collect"}});
  stage_cluster_ = &registry_->gauge("resmon_pipeline_stage_seconds",
                                     stage_help, {{"stage", "cluster"}});
  stage_forecast_ = &registry_->gauge("resmon_pipeline_stage_seconds",
                                      stage_help, {{"stage", "forecast"}});
  steps_total_ = &registry_->counter("resmon_pipeline_steps_total",
                                     "Time slots processed (incl. warm-up)");
  warmup_total_ = &registry_->counter(
      "resmon_pipeline_warmup_slots_total",
      "Slots skipped because the central store was still incomplete");
  store_complete_ = &registry_->gauge(
      "resmon_collect_store_complete",
      "1 once the central store has heard from every node, else 0");

  const std::size_t views = options.cluster_per_resource ? resources : 1;
  const std::size_t depth =
      std::max({options.temporal_window, options.similarity_lookback + 1,
                options.offset_lookback + 1});

  cluster::DynamicClusterOptions copts;
  copts.k = options.num_clusters;
  copts.history_m = options.similarity_lookback;
  copts.similarity = options.similarity;
  copts.reindex = options.reindex_clusters;
  copts.kmeans.pool = pool_.get();
  copts.metrics = registry_.get();

  trackers_.reserve(views);
  histories_.assign(views, cluster::ClusterHistory(depth));
  models_.resize(views);
  if (options.temporal_window > 1) features_scratch_.resize(views);
  for (std::size_t v = 0; v < views; ++v) {
    cluster::DynamicClusterOptions vopts = copts;
    vopts.metrics_view = std::to_string(v);
    trackers_.emplace_back(vopts, options.seed + 1000 * (v + 1));
    const std::size_t dims = view_dims();
    models_[v].reserve(options.num_clusters * dims);
    for (std::size_t j = 0; j < options.num_clusters; ++j) {
      for (std::size_t dim = 0; dim < dims; ++dim) {
        // Appended piecewise: GCC 12 reports a false -Wrestrict on the
        // inlined `"v" + std::string` of a Release build.
        std::string label = "v";
        label += std::to_string(v);
        label += ".c";
        label += std::to_string(j);
        label += ".d";
        label += std::to_string(dim);
        models_[v].push_back(std::make_unique<forecast::ManagedForecaster>(
            forecast::make_forecaster(
                options.forecaster,
                options.seed + 7919 * (v + 1) + 31 * j + dim),
            options.schedule, registry_.get(), label));
      }
    }
  }
}

StageTimers MonitoringPipeline::stage_timers() const {
  return StageTimers{.collect_seconds = stage_collect_->value(),
                     .cluster_seconds = stage_cluster_->value(),
                     .forecast_seconds = stage_forecast_->value()};
}

void MonitoringPipeline::view_snapshot_into(std::size_t view,
                                            Matrix& snap) const {
  const std::size_t n = store_.num_nodes();
  const std::size_t d = store_.num_resources();
  const std::span<const double> z = store_.values();
  if (options_.cluster_per_resource) {
    snap.resize(n, 1);
    for (std::size_t i = 0; i < n; ++i) snap(i, 0) = z[i * d + view];
    return;
  }
  snap.resize(n, d);
  std::copy(z.begin(), z.end(), snap.data().begin());
}

void MonitoringPipeline::view_features_into(std::size_t view,
                                            Matrix& features) const {
  const std::size_t w = options_.temporal_window;
  const std::size_t n = store_.num_nodes();
  const std::size_t vd = view_dims();
  const cluster::ClusterHistory& history = histories_[view];
  features.resize(n, vd * w);
  for (std::size_t slot = 0; slot < w; ++slot) {
    // slot 0 = most recent snapshot; pad older slots with the oldest
    // available snapshot during warm-up.
    const Matrix& snap =
        history.at(std::min(slot, history.size() - 1)).values;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < vd; ++c) {
        features(i, slot * vd + c) = snap(i, c);
      }
    }
  }
}

Matrix MonitoringPipeline::view_features(std::size_t view) const {
  RESMON_REQUIRE(!history(view).empty(),
                 "view_features before any clustered step");
  Matrix features;
  view_features_into(view, features);
  return features;
}

void MonitoringPipeline::update_view(std::size_t view) {
  cluster::ClusterHistory& history = histories_[view];
  view_snapshot_into(view, history.advance().values);
  if (options_.temporal_window == 1) {
    trackers_[view].update(history);
  } else {
    Matrix& features = features_scratch_[view];
    view_features_into(view, features);
    trackers_[view].update(features, history);
  }
}

void MonitoringPipeline::step_external(
    std::span<const transport::MeasurementMessage> messages) {
  obs::ScopedSpan collect(options_.trace_events, "pipeline.collect",
                          stage_collect_);
  for (const transport::MeasurementMessage& m : messages) {
    // z_t may only hold what was measured by slot t; a future measurement
    // would also shadow the real one when it arrives ("not fresher").
    RESMON_REQUIRE(m.step <= step_count_,
                   "MonitoringPipeline: measurement from a later slot");
    store_.apply(m);
  }
  const bool complete = store_.complete();
  store_complete_->set(complete ? 1.0 : 0.0);
  collect.stop();

  if (!complete) {
    // Warm-up: with a lossy/delayed uplink the central node may not have
    // heard from every machine yet; keep collecting until it has. (Every
    // built-in policy transmits at t = 0, so on a reliable link this never
    // lasts beyond the first step.)
    warmup_total_->inc();
    steps_total_->inc();
    ++step_count_;
    return;
  }

  // Each view owns its tracker and history (and its own RNG inside the
  // tracker), so views update in parallel; a view's nested K-means parallel
  // loops fall through to the same pool. Chunk grain 1 = one task per view.
  {
    obs::ScopedSpan span(options_.trace_events, "pipeline.cluster",
                         stage_cluster_);
    run_chunked(pool_.get(), trackers_.size(), 1,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  for (std::size_t v = begin; v < end; ++v) update_view(v);
                });
  }

  // Every (view, cluster, dim) forecaster is an independent model fed from
  // the clustering finished above; retrains run in parallel, one task per
  // model. All models share one schedule and history length, so steps where
  // nothing retrains (the overwhelming majority) skip the pool entirely —
  // observe() is then just a push + transient update, far cheaper than a
  // parallel-region launch.
  {
    obs::ScopedSpan span(options_.trace_events, "pipeline.forecast",
                         stage_forecast_);
    const std::size_t dims = view_dims();
    const std::size_t per_view = options_.num_clusters * dims;
    ThreadPool* pool =
        models_[0][0]->next_observe_retrains() ? pool_.get() : nullptr;
    run_chunked(pool, trackers_.size() * per_view, 1,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  for (std::size_t m = begin; m < end; ++m) {
                    const std::size_t v = m / per_view;
                    const std::size_t idx = m % per_view;
                    const cluster::Clustering& clustering =
                        histories_[v].at(0).clustering;
                    models_[v][idx]->observe(
                        clustering.centroids(idx / dims, idx % dims));
                  }
                });
  }
  steps_total_->inc();
  ++step_count_;
}

Matrix MonitoringPipeline::forecast_all(std::size_t h) const {
  RESMON_REQUIRE(step_count_ >= 1, "forecast_all before any step");
  const std::size_t n = store_.num_nodes();
  const std::size_t d = store_.num_resources();
  Matrix out(n, d);

  if (h == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> z = store_.stored(i);
      for (std::size_t r = 0; r < d; ++r) out(i, r) = z[r];
    }
    return out;
  }

  const std::size_t dims = view_dims();
  // Call-local buffers keep concurrent queries independent; without
  // use_offset the offsets stay zero and are still added.
  std::vector<std::size_t> modal(n);
  Matrix offset(n, dims);
  Matrix c_hat(options_.num_clusters, dims);
  for (std::size_t v = 0; v < trackers_.size(); ++v) {
    // Forecasted centroids for every cluster of this view.
    for (std::size_t j = 0; j < options_.num_clusters; ++j) {
      for (std::size_t dim = 0; dim < dims; ++dim) {
        c_hat(j, dim) = models_[v][j * dims + dim]->forecast(h);
      }
    }
    modal_offsets(histories_[v], options_.offset_lookback + 1,
                  options_.offset_alpha, modal,
                  options_.use_offset ? &offset : nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t dim = 0; dim < dims; ++dim) {
        const std::size_t r = options_.cluster_per_resource ? v : dim;
        out(i, r) = c_hat(modal[i], dim) + offset(i, dim);
      }
    }
  }
  return out;
}

const cluster::DynamicClusterTracker& MonitoringPipeline::tracker(
    std::size_t view) const {
  RESMON_REQUIRE(view < trackers_.size(), "view index out of range");
  return trackers_[view];
}

const cluster::ClusterHistory& MonitoringPipeline::history(
    std::size_t view) const {
  RESMON_REQUIRE(view < histories_.size(), "view index out of range");
  return histories_[view];
}

const forecast::ManagedForecaster& MonitoringPipeline::model(
    std::size_t view, std::size_t j, std::size_t dim) const {
  RESMON_REQUIRE(view < models_.size(), "view index out of range");
  const std::size_t dims = view_dims();
  RESMON_REQUIRE(j < options_.num_clusters && dim < dims,
                 "model index out of range");
  return *models_[view][j * dims + dim];
}

}  // namespace resmon::core
