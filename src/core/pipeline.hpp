// MonitoringPipeline: the central node of the paper's system (Fig. 2).
//
// Per time step:
//   1. the slot's messages arrive through step_external() — from TCP agents
//      (net::Controller) or from the in-process fleet of sim::Driver, whose
//      local nodes decide whether to push each measurement (§V-A) — and
//      update the pipeline's central store, which holds z_t;
//   2. the central node clusters z_t with the dynamic cluster tracker
//      (§V-B) — by default one tracker per resource on scalar values;
//   3. each cluster's centroid extends that cluster's time series and is
//      fed to the cluster's managed forecaster (§V-C), which retrains on
//      the paper's schedule.
//
// Forecasts x-hat_{i,t+h} (eq. (2)) combine the forecasted centroid of the
// cluster node i is predicted to belong to (modal membership over the last
// M' steps) with the alpha-scaled per-node offset of eq. (12).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cluster/dynamic_cluster.hpp"
#include "collect/fleet_collector.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "forecast/managed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"
#include "trace/trace.hpp"
#include "transport/channel.hpp"

namespace resmon::core {

struct PipelineOptions {
  // -- collection (§V-A) ----------------------------------------------------
  /// Read only by sim::Driver's in-process fleet, never by the pipeline:
  /// the remote agents own their policies. Pinned here until the benchmark
  /// (slotbench/) spells them elsewhere. The adaptive policy runs with
  /// collect::AdaptiveOptions' paper defaults for V_0, gamma and the queue
  /// clamp.
  collect::PolicyKind policy = collect::PolicyKind::kAdaptive;
  double max_frequency = 0.3;  ///< B (paper default 0.3)

  // -- clustering (§V-B) ----------------------------------------------------
  std::size_t num_clusters = 3;        ///< K (paper default 3)
  std::size_t similarity_lookback = 1;  ///< M (paper default 1)
  cluster::SimilarityKind similarity =
      cluster::SimilarityKind::kIntersection;
  /// Cluster each resource independently on scalar values (paper default;
  /// Table I shows this beats joint full-vector clustering).
  bool cluster_per_resource = true;
  /// Temporal clustering dimension (Fig. 5): cluster on the concatenation
  /// of the last `temporal_window` stored snapshots. 1 = no windowing.
  std::size_t temporal_window = 1;

  // -- forecasting (§V-C) ---------------------------------------------------
  forecast::ForecasterKind forecaster =
      forecast::ForecasterKind::kSampleHold;
  forecast::RetrainSchedule schedule{.initial_steps = 1000,
                                     .retrain_interval = 288};
  std::size_t offset_lookback = 5;  ///< M' (paper default 5)
  /// Apply the per-node offset s-hat of eq. (12) (disable for ablation).
  bool use_offset = true;
  /// Apply the alpha scaling inside eq. (12) (disable for ablation).
  bool offset_alpha = true;
  /// Re-index clusters against history (eq. (10)/(11)); disable for
  /// ablation.
  bool reindex_clusters = true;

  std::uint64_t seed = 1;

  // -- observability ---------------------------------------------------------
  /// Optional metrics sink (non-owning): every component's series land
  /// here (resmon_collect_*, resmon_cluster_*, resmon_forecast_*,
  /// resmon_pipeline_*). When null the pipeline owns a private registry so
  /// stage_timers() and metrics() always work.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional trace-event sink (non-owning): per-step pipeline.collect /
  /// pipeline.cluster / pipeline.forecast spans. nullptr = no tracing.
  obs::TraceBuffer* trace_events = nullptr;

  // -- execution -------------------------------------------------------------
  /// Worker threads for the hot stages of a slot (K-means, forecaster
  /// retraining; sim::Driver's policy stepping stays serial). 0 = hardware
  /// concurrency, 1 = the exact serial path (no pool). Results are
  /// bit-identical at every value — see the "Threading model" section of
  /// DESIGN.md.
  std::size_t num_threads = 1;
};

/// Wall-clock seconds spent in each stage of a slot since construction (the
/// breakdown bench/micro_parallel_step and table4_computation_time report;
/// one run's split is the difference of two reads). A value-type adapter
/// over the resmon_pipeline_stage_seconds{stage=...} gauges in the registry.
struct StageTimers {
  double collect_seconds = 0.0;   ///< store apply (+ sim::Driver's produce)
  double cluster_seconds = 0.0;   ///< snapshots, K-means, re-indexing
  double forecast_seconds = 0.0;  ///< feeding/retraining managed forecasters
  double total_seconds() const {
    return collect_seconds + cluster_seconds + forecast_seconds;
  }
};

/// Tag of the trace constructor. Pinned, with that constructor, until the
/// benchmark (slotbench/) builds its pipeline from (nodes, resources).
struct ExternalCollection {};

/// The central node: it consumes each slot's received measurements, and
/// holds no collector and no ground truth. sim::Driver feeds it from an
/// in-process fleet; sim::rmse_at and sim::intermediate_rmse score it
/// against a trace.
class MonitoringPipeline {
 public:
  /// A pipeline for `nodes` machines reporting `resources` values each.
  MonitoringPipeline(std::size_t nodes, std::size_t resources,
                     const PipelineOptions& options);

  /// Same, shaped like `trace` (which is not kept). Pinned spelling.
  MonitoringPipeline(const trace::Trace& trace,
                     const PipelineOptions& options, ExternalCollection)
      : MonitoringPipeline(trace.num_nodes(), trace.num_resources(),
                           options) {}

  /// Advance one time step on the slot's received measurements: apply them
  /// to the central store, then run the clustering + forecasting stages.
  /// Slots must be fed in order. Late messages (from earlier slots) are
  /// applied when fresher than the stored one; a message from a later slot
  /// than current_step() throws InvalidArgument.
  void step_external(
      std::span<const transport::MeasurementMessage> messages);

  /// Steps processed so far; the last processed step index is
  /// current_step() - 1.
  std::size_t current_step() const { return step_count_; }

  /// x-hat_{i,t+h} for all nodes (N x d). h = 0 returns the stored z_t
  /// (matching the paper's convention in eq. (3)); h >= 1 combines centroid
  /// forecasts with per-node offsets. Requires at least one step.
  Matrix forecast_all(std::size_t h) const;

  // -- component access -------------------------------------------------
  /// Number of clustering views: num_resources when clustering per
  /// resource, otherwise 1.
  std::size_t num_views() const { return trackers_.size(); }
  const cluster::DynamicClusterTracker& tracker(std::size_t view) const;
  /// The view's one history, max(temporal_window, M + 1, M' + 1) steps
  /// deep: each clustered slot's snapshot and its clustering, newest at
  /// age 0. The tracker re-indexes against it, forecast_all() reads modal
  /// membership and offsets from it, and view_features() concatenates it.
  const cluster::ClusterHistory& history(std::size_t view) const;
  /// The central node's current view z_t.
  const transport::CentralStore& central_store() const { return store_; }
  /// Managed forecaster of cluster j, dimension `dim` within `view`.
  const forecast::ManagedForecaster& model(std::size_t view, std::size_t j,
                                           std::size_t dim = 0) const;
  const PipelineOptions& options() const { return options_; }

  /// Per-stage wall-clock breakdown accumulated since construction (reads
  /// the stage gauges in metrics()).
  StageTimers stage_timers() const;

  /// The registry all pipeline series are registered in: the one from
  /// PipelineOptions::metrics, else the pipeline-owned fallback.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Clustering features of a view: the concatenation of the last
  /// `temporal_window` stored snapshots, N x (view_dims * temporal_window),
  /// with warm-up slots padded by the oldest available snapshot (Fig. 5).
  /// Throws before the first clustered step.
  Matrix view_features(std::size_t view) const;

 private:
  std::size_t view_dims() const {
    return options_.cluster_per_resource ? 1 : store_.num_resources();
  }
  /// Stored-measurement snapshot for a view, written into `snap`
  /// (N x view_dims(), capacity reused across steps). Requires a complete
  /// store: it copies the store's block without per-node checks.
  void view_snapshot_into(std::size_t view, Matrix& snap) const;
  /// Allocation-free core of view_features().
  void view_features_into(std::size_t view, Matrix& features) const;
  /// One view's share of a step: record the snapshot, then cluster it.
  void update_view(std::size_t view);

  PipelineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // present only when num_threads > 1
  /// z_t of §IV: the central node's view, written only by step_external().
  transport::CentralStore store_;
  std::vector<cluster::DynamicClusterTracker> trackers_;
  std::vector<cluster::ClusterHistory> histories_;  // see history()
  // models_[view * K * view_dims + j * view_dims + dim], and the centroid
  // each one observes this step
  std::vector<forecast::ManagedForecaster> models_;
  std::vector<double> centroid_values_;
  // Per-view clustering-feature scratch for the temporal window path.
  std::vector<Matrix> features_scratch_;
  std::size_t step_count_ = 0;
  /// PipelineOptions::metrics, else a registry the pipeline owns.
  obs::RegistryRef registry_;
  obs::Gauge* stage_collect_ = nullptr;
  obs::Gauge* stage_cluster_ = nullptr;
  obs::Gauge* stage_forecast_ = nullptr;
  obs::Counter* steps_total_ = nullptr;
  obs::Counter* warmup_total_ = nullptr;
  obs::Gauge* store_complete_ = nullptr;
};

}  // namespace resmon::core
