// MonitoringPipeline: the paper's complete system (Fig. 2).
//
// Per time step:
//   1. every local node's transmission policy decides whether to push its
//      measurement (§V-A); the slot's messages, from the in-process
//      FleetCollector or from outside via step_external(), update the
//      pipeline's central store, which holds z_t;
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
#include "faultnet/fault_spec.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/estimation.hpp"
#include "core/metrics.hpp"
#include "forecast/managed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"
#include "trace/trace.hpp"

namespace resmon::core {

struct PipelineOptions {
  // -- collection (§V-A) ----------------------------------------------------
  collect::PolicyKind policy = collect::PolicyKind::kAdaptive;
  double max_frequency = 0.3;  ///< B (paper default 0.3)
  double v0 = 1e-12;           ///< V_0 of eq. (8)
  double gamma = 0.65;         ///< gamma of eq. (8)
  bool clamp_queue = false;    ///< see AdaptiveOptions::clamp_queue
  /// Uplink fault schedule: when non-empty, the in-process LoopbackLink is
  /// wrapped in a faultnet::FaultyLink applying this spec
  /// (drop/dup/corrupt/delay/reorder/stall/partition); default = reliable
  /// link. Unused in external-collection mode — the remote agents own their
  /// fault hooks.
  faultnet::FaultSpec faults;

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
  /// Worker threads for the hot stages of step() (policy stepping, K-means,
  /// forecaster retraining). 0 = hardware concurrency, 1 = the exact serial
  /// path (no pool). Results are bit-identical at every value — see the
  /// "Threading model" section of DESIGN.md.
  std::size_t num_threads = 1;
};

/// Wall-clock seconds spent in each stage of step() since the last run()
/// began (the breakdown bench/micro_parallel_step and
/// table4_computation_time report). A value-type adapter over the
/// resmon_pipeline_stage_seconds{stage=...} gauges in the registry.
struct StageTimers {
  double collect_seconds = 0.0;   ///< policy stepping + channel + store
  double cluster_seconds = 0.0;   ///< snapshots, K-means, re-indexing, offsets
  double forecast_seconds = 0.0;  ///< feeding/retraining managed forecasters
  double total_seconds() const {
    return collect_seconds + cluster_seconds + forecast_seconds;
  }
};

/// Tag selecting external collection: measurements arrive from outside the
/// process (e.g. a net::Controller draining TCP agents) via
/// step_external(); no in-process FleetCollector is built.
struct ExternalCollection {};

class MonitoringPipeline {
 public:
  MonitoringPipeline(const trace::Trace& trace,
                     const PipelineOptions& options);

  /// External-collection variant: no FleetCollector is built; the caller
  /// feeds each slot's received measurements through step_external().
  /// PipelineOptions' collection knobs (policy, max_frequency, v0, gamma,
  /// clamp_queue, faults) are unused — the remote agents own them.
  MonitoringPipeline(const trace::Trace& trace,
                     const PipelineOptions& options, ExternalCollection);

  /// Advance one time step: the in-process collector produces the slot,
  /// which is consumed exactly like step_external()'s. Throws without a
  /// collector, and after any step_external() (the collector needs
  /// consecutive slots).
  void step();

  /// Advance one time step on measurements received from outside: apply
  /// them to the central store, then run the clustering + forecasting
  /// stages. Slots must be fed in order. Late messages (from earlier
  /// slots) are applied when fresher than the stored one; a message from a
  /// later slot than current_step() throws InvalidArgument.
  void step_external(
      std::span<const transport::MeasurementMessage> messages);

  /// Run `count` steps (convenience). Resets the per-stage timers first so
  /// each run() reports its own breakdown rather than silently accumulating
  /// across repeated runs on one pipeline object.
  void run(std::size_t count);

  /// Steps processed so far; the last processed step index is
  /// current_step() - 1.
  std::size_t current_step() const { return step_count_; }
  bool done() const { return step_count_ >= trace_.num_steps(); }

  /// x-hat_{i,t+h} for all nodes (N x d). h = 0 returns the stored z_t
  /// (matching the paper's convention in eq. (3)); h >= 1 combines centroid
  /// forecasts with per-node offsets. Requires at least one step().
  Matrix forecast_all(std::size_t h) const;

  /// RMSE(t, h) of eq. (3) against the trace's ground truth at step
  /// t + h, where t is the last processed step. Requires t + h to lie
  /// within the trace.
  double rmse_at(std::size_t h) const;

  /// Intermediate RMSE of the current clustering against the ground truth
  /// at the last processed step (aggregated over all views/dimensions).
  double intermediate_rmse() const;

  /// Intermediate RMSE restricted to one dimension of one view. With the
  /// default per-resource clustering, `view` selects the resource and `dim`
  /// must be 0; with joint clustering, `view` is 0 and `dim` selects the
  /// resource. This is what the per-resource panels of Figs. 5-7 report.
  double intermediate_rmse(std::size_t view, std::size_t dim) const;

  // -- component access -------------------------------------------------
  /// Number of clustering views: num_resources when clustering per
  /// resource, otherwise 1.
  std::size_t num_views() const { return trackers_.size(); }
  const cluster::DynamicClusterTracker& tracker(std::size_t view) const;
  /// The in-process collector. Throws InvalidState in external-collection
  /// mode (there is none; the agents live in other processes).
  const collect::FleetCollector& collector() const;
  /// The central node's current view z_t, in either collection mode.
  const transport::CentralStore& central_store() const { return store_; }
  /// Managed forecaster of cluster j, dimension `dim` within `view`.
  const forecast::ManagedForecaster& model(std::size_t view, std::size_t j,
                                           std::size_t dim = 0) const;
  const PipelineOptions& options() const { return options_; }
  const trace::Trace& trace() const { return trace_; }

  /// Per-stage wall-clock breakdown accumulated across step() calls since
  /// the last run() started (reads the stage gauges in metrics()).
  StageTimers stage_timers() const;

  /// The registry all pipeline series are registered in: the one from
  /// PipelineOptions::metrics, else the pipeline-owned fallback.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Clustering features of a view: the concatenation of the last
  /// `temporal_window` stored snapshots, N x (view_dims * temporal_window),
  /// with warm-up slots padded by the oldest available snapshot (Fig. 5).
  /// Requires at least one clustered step.
  Matrix view_features(std::size_t view) const;

 private:
  std::size_t view_dims() const {
    return options_.cluster_per_resource ? 1 : trace_.num_resources();
  }
  /// Stored-measurement snapshot for a view, written into `snap`
  /// (N x view_dims(), capacity reused across steps).
  void view_snapshot_into(std::size_t view, Matrix& snap) const;
  /// Allocation-free core of view_features().
  void view_features_into(std::size_t view, Matrix& features) const;
  /// Retained snapshot of a view, `age` steps back (0 = most recent).
  const Matrix& snapshot(std::size_t view, std::size_t age) const {
    return snapshot_ring_[view][(snap_head_ + age) % snapshot_capacity_];
  }
  /// Ground-truth snapshot for a view at a given step.
  Matrix view_truth(std::size_t view, std::size_t t) const;
  /// One view's share of a step: push the snapshot, cluster, track offsets.
  void update_view(std::size_t view);
  /// The one consume path of step() and step_external(): apply the slot's
  /// messages to store_, close the caller's collect span, then run the
  /// clustering + forecasting stages; returns after bumping step_count_.
  void consume_slot(std::span<const transport::MeasurementMessage> messages,
                    obs::ScopedSpan& collect_span);

  const trace::Trace& trace_;
  PipelineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // present only when num_threads > 1
  std::unique_ptr<collect::FleetCollector> collector_;  // null if external
  /// z_t of §IV: the central node's view, written only by consume_slot().
  transport::CentralStore store_;
  std::vector<cluster::DynamicClusterTracker> trackers_;
  // Membership forecasting and eq. (12) offsets, one per view.
  std::vector<OffsetTracker> offsets_;
  // models_[view][j * view_dims + dim]
  std::vector<std::vector<std::unique_ptr<forecast::ManagedForecaster>>>
      models_;
  // Per-view ring of the last `temporal_window` stored snapshots, newest at
  // snap_head_. All views advance in lockstep, so the head/size indices are
  // shared; Matrix slots recycle their capacity, keeping the per-step path
  // allocation-free (see docs/PERFORMANCE.md).
  std::vector<std::vector<Matrix>> snapshot_ring_;
  std::size_t snapshot_capacity_;
  std::size_t snap_head_ = 0;
  std::size_t snap_size_ = 0;
  // Per-view clustering-feature scratch for the temporal window path.
  mutable std::vector<Matrix> features_scratch_;
  std::size_t step_count_ = 0;
  /// Fallback registry, owned only when PipelineOptions::metrics is null.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;  ///< always valid
  obs::Gauge* stage_collect_ = nullptr;
  obs::Gauge* stage_cluster_ = nullptr;
  obs::Gauge* stage_forecast_ = nullptr;
  obs::Counter* steps_total_ = nullptr;
  obs::Counter* warmup_total_ = nullptr;
  obs::Gauge* store_complete_ = nullptr;
};

}  // namespace resmon::core
