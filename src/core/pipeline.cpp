#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "faultnet/faulty_link.hpp"
#include "net/loopback.hpp"

namespace resmon::core {

MonitoringPipeline::MonitoringPipeline(const trace::Trace& trace,
                                       const PipelineOptions& options)
    : MonitoringPipeline(trace, options, ExternalCollection{}) {
  // The in-process uplink runs the real wire codec (LoopbackLink), so every
  // deterministic run exercises the exact encode/decode path the TCP runtime
  // uses and bandwidth counts real frame bytes. A non-empty fault schedule
  // layers the chaos harness on top of it.
  std::unique_ptr<transport::Link> link = std::make_unique<net::LoopbackLink>();
  if (!options_.faults.empty()) {
    link = std::make_unique<faultnet::FaultyLink>(
        options_.faults, std::move(link), registry_);
  }
  collector_ = std::make_unique<collect::FleetCollector>(
      trace,
      collect::make_policy_factory(options.policy, options.max_frequency,
                                   options.v0, options.gamma,
                                   options.clamp_queue, registry_),
      pool_.get(), std::move(link), registry_);
}

MonitoringPipeline::MonitoringPipeline(const trace::Trace& trace,
                                       const PipelineOptions& options,
                                       ExternalCollection)
    : trace_(trace),
      options_(options),
      store_(trace.num_nodes(), trace.num_resources()) {
  RESMON_REQUIRE(options.num_clusters >= 1 &&
                     options.num_clusters <= trace.num_nodes(),
                 "K must be in [1, N]");
  RESMON_REQUIRE(options.temporal_window >= 1,
                 "temporal window must be >= 1");
  RESMON_REQUIRE(options.similarity_lookback >= 1, "M must be >= 1");

  const std::size_t threads =
      options_.num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options_.num_threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);

  if (options_.metrics != nullptr) {
    registry_ = options_.metrics;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  const char* stage_help =
      "Wall-clock seconds spent in this stage since the last run() began";
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

  const std::size_t views =
      options.cluster_per_resource ? trace.num_resources() : 1;
  snapshot_capacity_ = options.temporal_window;

  cluster::DynamicClusterOptions copts;
  copts.k = options.num_clusters;
  copts.history_m = options.similarity_lookback;
  copts.similarity = options.similarity;
  copts.reindex = options.reindex_clusters;
  copts.history_capacity = std::max(
      {options.similarity_lookback, options.offset_lookback + 1,
       std::size_t{16}});
  copts.kmeans.pool = pool_.get();
  copts.metrics = registry_;

  trackers_.reserve(views);
  offsets_.reserve(views);
  models_.resize(views);
  snapshot_ring_.resize(views);
  for (std::size_t v = 0; v < views; ++v) {
    snapshot_ring_[v].resize(snapshot_capacity_);
  }
  if (options.temporal_window > 1) features_scratch_.resize(views);
  for (std::size_t v = 0; v < views; ++v) {
    cluster::DynamicClusterOptions vopts = copts;
    vopts.metrics_view = std::to_string(v);
    trackers_.emplace_back(vopts, options.seed + 1000 * (v + 1));
    offsets_.emplace_back(options.offset_lookback, options.num_clusters,
                          options.offset_alpha);
    const std::size_t dims = view_dims();
    models_[v].reserve(options.num_clusters * dims);
    for (std::size_t j = 0; j < options.num_clusters; ++j) {
      for (std::size_t dim = 0; dim < dims; ++dim) {
        models_[v].push_back(std::make_unique<forecast::ManagedForecaster>(
            forecast::make_forecaster(
                options.forecaster,
                options.seed + 7919 * (v + 1) + 31 * j + dim),
            options.schedule, registry_,
            "v" + std::to_string(v) + ".c" + std::to_string(j) + ".d" +
                std::to_string(dim)));
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
  const std::size_t n = trace_.num_nodes();
  if (options_.cluster_per_resource) {
    snap.resize(n, 1);
    for (std::size_t i = 0; i < n; ++i) snap(i, 0) = store_.stored(i)[view];
    return;
  }
  snap.resize(n, trace_.num_resources());
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& z = store_.stored(i);
    for (std::size_t r = 0; r < z.size(); ++r) snap(i, r) = z[r];
  }
}

Matrix MonitoringPipeline::view_truth(std::size_t view, std::size_t t) const {
  const std::size_t n = trace_.num_nodes();
  if (options_.cluster_per_resource) {
    Matrix truth(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      truth(i, 0) = trace_.value(i, t, view);
    }
    return truth;
  }
  Matrix truth(n, trace_.num_resources());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < trace_.num_resources(); ++r) {
      truth(i, r) = trace_.value(i, t, r);
    }
  }
  return truth;
}

void MonitoringPipeline::view_features_into(std::size_t view,
                                            Matrix& features) const {
  const std::size_t w = options_.temporal_window;
  const std::size_t n = trace_.num_nodes();
  const std::size_t vd = view_dims();
  features.resize(n, vd * w);
  for (std::size_t slot = 0; slot < w; ++slot) {
    // slot 0 = most recent snapshot; pad older slots with the oldest
    // available snapshot during warm-up.
    const Matrix& snap = snapshot(view, std::min(slot, snap_size_ - 1));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < vd; ++c) {
        features(i, slot * vd + c) = snap(i, c);
      }
    }
  }
}

Matrix MonitoringPipeline::view_features(std::size_t view) const {
  Matrix features;
  view_features_into(view, features);
  return features;
}

void MonitoringPipeline::update_view(std::size_t view) {
  // The ring indices were advanced in consume_slot(); fill this view's slot.
  Matrix& values = snapshot_ring_[view][snap_head_];
  view_snapshot_into(view, values);

  const cluster::Clustering* clustering = nullptr;
  if (options_.temporal_window == 1) {
    clustering = &trackers_[view].update(values);
  } else {
    Matrix& features = features_scratch_[view];
    view_features_into(view, features);
    clustering = &trackers_[view].update(features, values);
  }
  offsets_[view].push(*clustering, values);
}

void MonitoringPipeline::step() {
  RESMON_REQUIRE(collector_ != nullptr,
                 "step() needs in-process collection; use step_external()");
  RESMON_REQUIRE(!done(), "pipeline already consumed the whole trace");
  obs::ScopedSpan collect(options_.trace_events, "pipeline.collect",
                          stage_collect_);
  consume_slot(collector_->step(step_count_), collect);
}

void MonitoringPipeline::step_external(
    std::span<const transport::MeasurementMessage> messages) {
  RESMON_REQUIRE(!done(), "pipeline already consumed the whole trace");
  obs::ScopedSpan collect(options_.trace_events, "pipeline.collect",
                          stage_collect_);
  consume_slot(messages, collect);
}

void MonitoringPipeline::consume_slot(
    std::span<const transport::MeasurementMessage> messages,
    obs::ScopedSpan& collect_span) {
  for (const transport::MeasurementMessage& m : messages) {
    // z_t may only hold what was measured by slot t; a future measurement
    // would also shadow the real one when it arrives ("not fresher").
    RESMON_REQUIRE(m.step <= step_count_,
                   "MonitoringPipeline: measurement from a later slot");
    store_.apply(m);
  }
  const bool complete = store_.complete();
  store_complete_->set(complete ? 1.0 : 0.0);
  collect_span.stop();

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

  // Each view owns its tracker, offset window and snapshot history (and its
  // own RNG inside the tracker), so views update in parallel; a view's
  // nested K-means parallel loops fall through to the same pool. Chunk
  // grain 1 = one task per view.
  {
    obs::ScopedSpan span(options_.trace_events, "pipeline.cluster",
                         stage_cluster_);
    // Advance the shared snapshot ring once; update_view fills the slots.
    snap_head_ = (snap_head_ + snapshot_capacity_ - 1) % snapshot_capacity_;
    if (snap_size_ < snapshot_capacity_) ++snap_size_;
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
                        trackers_[v].history(0);
                    models_[v][idx]->observe(
                        clustering.centroids(idx / dims, idx % dims));
                  }
                });
  }
  steps_total_->inc();
  ++step_count_;
}

void MonitoringPipeline::run(std::size_t count) {
  stage_collect_->set(0.0);
  stage_cluster_->set(0.0);
  stage_forecast_->set(0.0);
  for (std::size_t i = 0; i < count && !done(); ++i) step();
}

Matrix MonitoringPipeline::forecast_all(std::size_t h) const {
  RESMON_REQUIRE(step_count_ >= 1, "forecast_all before any step");
  const std::size_t n = trace_.num_nodes();
  const std::size_t d = trace_.num_resources();
  Matrix out(n, d);

  if (h == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double>& z = store_.stored(i);
      for (std::size_t r = 0; r < d; ++r) out(i, r) = z[r];
    }
    return out;
  }

  const std::size_t dims = view_dims();
  for (std::size_t v = 0; v < trackers_.size(); ++v) {
    // Forecasted centroids for every cluster of this view.
    Matrix c_hat(options_.num_clusters, dims);
    for (std::size_t j = 0; j < options_.num_clusters; ++j) {
      for (std::size_t dim = 0; dim < dims; ++dim) {
        c_hat(j, dim) = models_[v][j * dims + dim]->forecast(h);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = offsets_[v].modal_cluster(i);
      const std::vector<double> offset =
          options_.use_offset ? offsets_[v].offset(i, j)
                              : std::vector<double>(dims, 0.0);
      for (std::size_t dim = 0; dim < dims; ++dim) {
        const double value = c_hat(j, dim) + offset[dim];
        const std::size_t r = options_.cluster_per_resource ? v : dim;
        out(i, r) = value;
      }
    }
  }
  return out;
}

double MonitoringPipeline::rmse_at(std::size_t h) const {
  RESMON_REQUIRE(step_count_ >= 1, "rmse_at before any step");
  const std::size_t t_last = step_count_ - 1;
  RESMON_REQUIRE(t_last + h < trace_.num_steps(),
                 "rmse_at: t + h beyond end of trace");
  const std::size_t n = trace_.num_nodes();
  const std::size_t d = trace_.num_resources();
  Matrix truth(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < d; ++r) {
      truth(i, r) = trace_.value(i, t_last + h, r);
    }
  }
  return rmse_step(truth, forecast_all(h));
}

double MonitoringPipeline::intermediate_rmse() const {
  RESMON_REQUIRE(step_count_ >= 1, "intermediate_rmse before any step");
  const std::size_t t_last = step_count_ - 1;
  const std::size_t n = trace_.num_nodes();
  double total = 0.0;
  for (std::size_t v = 0; v < trackers_.size(); ++v) {
    const Matrix truth = view_truth(v, t_last);
    const cluster::Clustering& clustering = trackers_[v].history(0);
    for (std::size_t i = 0; i < n; ++i) {
      total += squared_distance(
          truth.row(i), clustering.centroids.row(clustering.assignment[i]));
    }
  }
  return std::sqrt(total / static_cast<double>(n));
}

double MonitoringPipeline::intermediate_rmse(std::size_t view,
                                             std::size_t dim) const {
  RESMON_REQUIRE(step_count_ >= 1, "intermediate_rmse before any step");
  RESMON_REQUIRE(view < trackers_.size(), "view index out of range");
  RESMON_REQUIRE(dim < view_dims(), "dimension index out of range");
  const std::size_t t_last = step_count_ - 1;
  const std::size_t n = trace_.num_nodes();
  const cluster::Clustering& clustering = trackers_[view].history(0);
  const std::size_t resource = options_.cluster_per_resource ? view : dim;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double err =
        trace_.value(i, t_last, resource) -
        clustering.centroids(clustering.assignment[i], dim);
    total += err * err;
  }
  return std::sqrt(total / static_cast<double>(n));
}

const collect::FleetCollector& MonitoringPipeline::collector() const {
  if (collector_ == nullptr) {
    throw InvalidState(
        "MonitoringPipeline: no in-process collector in "
        "external-collection mode");
  }
  return *collector_;
}

const cluster::DynamicClusterTracker& MonitoringPipeline::tracker(
    std::size_t view) const {
  RESMON_REQUIRE(view < trackers_.size(), "view index out of range");
  return trackers_[view];
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
