// ManagedForecaster: the paper's training schedule around a Forecaster.
//
// "When the system starts for the first time, there is an initial data
//  collection phase where there is no forecasting model available to use.
//  ... The transient state of each model gets updated whenever a new
//  measurement is available. The models are retrained periodically at a
//  given time interval using all the historical cluster centroids." (§V-C)
#pragma once

#include <memory>
#include <span>
#include <string>

#include "forecast/forecaster.hpp"
#include "obs/metrics.hpp"

namespace resmon::forecast {

/// Retraining schedule. Paper defaults: initial phase of 1000 steps, then
/// retrain every 288 steps (one day at 5-minute sampling).
struct RetrainSchedule {
  std::size_t initial_steps = 1000;
  std::size_t retrain_interval = 288;
};

/// Feeds a centroid series into a Forecaster, (re)fitting it on the schedule
/// and updating its transient state in between. Before the first fit,
/// forecasts fall back to the last observed value (sample-and-hold), so the
/// pipeline always has an answer.
class ManagedForecaster {
 public:
  /// `metrics` (non-owning, may be nullptr) turns on instrumentation: the
  /// shared resmon_forecast_fits/fit-seconds series plus a
  /// resmon_forecast_residual_rmse{model="label"} gauge tracking this
  /// model's cumulative one-step-ahead error. Without a registry the
  /// residual is not tracked (no forecast(1) on the observe path).
  ManagedForecaster(std::unique_ptr<Forecaster> model,
                    const RetrainSchedule& schedule,
                    obs::MetricsRegistry* metrics = nullptr,
                    const std::string& label = {});

  /// Record one new observation (one per time step).
  void observe(double value);

  /// True when the NEXT observe() will trigger a scheduled (re)fit. The
  /// pipeline uses this to route cheap observe-only steps around the thread
  /// pool (see "Forecast-stage gating" in docs/PERFORMANCE.md).
  bool next_observe_retrains() const;

  /// True once the underlying model has been trained at least once.
  bool ready() const { return fits_completed_ > 0; }

  /// Forecast h >= 1 steps past the last observation. Uses the trained
  /// model when ready, otherwise holds the last observation.
  double forecast(std::size_t h) const;

  std::size_t observations() const { return history_.size(); }
  /// Every value observed so far, oldest first: the cluster's centroid
  /// series that each (re)fit trains on. The pipeline keeps no other copy.
  std::span<const double> history() const { return history_; }
  std::size_t fits_completed() const { return fits_completed_; }
  const Forecaster& model() const { return *model_; }

  /// Total wall-clock seconds spent inside model->fit() so far (Table II).
  double total_training_seconds() const { return training_seconds_; }

  /// RMSE of the one-step-ahead forecasts made so far (cumulative over all
  /// observe() calls after the first). Only tracked when a metrics registry
  /// was attached; 0.0 otherwise or before the second observation.
  double residual_rmse() const;

 private:
  std::unique_ptr<Forecaster> model_;
  RetrainSchedule schedule_;
  std::vector<double> history_;
  std::size_t fits_completed_ = 0;
  double training_seconds_ = 0.0;
  // One-step-ahead residual accumulation (metrics-only).
  double residual_sq_sum_ = 0.0;
  std::size_t residual_count_ = 0;
  // Optional metrics (all nullptr when no registry was given).
  obs::Counter* fits_total_ = nullptr;
  obs::Counter* fit_failures_total_ = nullptr;
  obs::Histogram* fit_seconds_ = nullptr;
  obs::Gauge* residual_gauge_ = nullptr;
};

}  // namespace resmon::forecast
