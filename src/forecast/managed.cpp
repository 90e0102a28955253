#include "forecast/managed.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "forecast/arima.hpp"

namespace resmon::forecast {

ManagedForecaster::ManagedForecaster(std::unique_ptr<Forecaster> model,
                                     const RetrainSchedule& schedule,
                                     obs::MetricsRegistry* metrics,
                                     const std::string& label)
    : model_(std::move(model)), schedule_(schedule) {
  RESMON_REQUIRE(model_ != nullptr, "ManagedForecaster requires a model");
  RESMON_REQUIRE(schedule.initial_steps >= 2,
                 "initial collection phase must have at least 2 steps");
  RESMON_REQUIRE(schedule.retrain_interval >= 1,
                 "retrain interval must be at least 1 step");
  if (metrics != nullptr) {
    fits_total_ = &metrics->counter("resmon_forecast_fits_total",
                                    "Completed model (re)fits, all models");
    fit_failures_total_ = &metrics->counter(
        "resmon_forecast_fit_failures_total",
        "Scheduled fits that threw NumericalError (fallback regime)");
    fit_seconds_ = &metrics->histogram(
        "resmon_forecast_fit_seconds",
        "Wall-clock duration of one model fit", obs::duration_seconds_buckets());
    residual_gauge_ = &metrics->gauge(
        "resmon_forecast_residual_rmse",
        "Cumulative one-step-ahead RMSE of this model's forecasts",
        {{"model", label}});
  }
}

namespace {

/// Initial reservation (in observations) of the unbounded history; growth
/// beyond it doubles, so steady-state observe() calls allocate nothing (see
/// docs/PERFORMANCE.md "Zero-allocation steady state").
constexpr std::size_t kHistoryReserveSteps = 1024;

}  // namespace

bool ManagedForecaster::next_observe_retrains() const {
  const std::size_t next = history_.size() + 1;
  return next == schedule_.initial_steps ||
         (next > schedule_.initial_steps &&
          (next - schedule_.initial_steps) % schedule_.retrain_interval == 0);
}

double ManagedForecaster::residual_rmse() const {
  if (residual_count_ == 0) return 0.0;
  return std::sqrt(residual_sq_sum_ / static_cast<double>(residual_count_));
}

void ManagedForecaster::observe(double value) {
  observe_all({this, 1}, {&value, 1});
}

bool ManagedForecaster::record(double value) {
  if (residual_gauge_ != nullptr && !history_.empty()) {
    // What would we have predicted for this step? Same fallback rule as
    // forecast(): the model once ready, else sample-and-hold.
    const double pred = ready() ? model_->forecast(1) : history_.back();
    const double err = value - pred;
    residual_sq_sum_ += err * err;
    ++residual_count_;
    residual_gauge_->set(residual_rmse());
  }

  const bool due = next_observe_retrains();
  if (history_.capacity() == history_.size()) {
    history_.reserve(std::max(history_.size() * 2, kHistoryReserveSteps));
  }
  history_.push_back(value);
  if (!due && ready()) model_->update(value);
  return due;
}

void ManagedForecaster::refit() {
  const auto start = std::chrono::steady_clock::now();
  bool ok = false;
  try {
    model_->fit(history_);
    ok = true;
  } catch (const NumericalError&) {
    // Not enough usable data yet (e.g. seasonal ARIMA with a long season);
    // stay in the fallback regime until the next scheduled fit.
  }
  record_fit(ok, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count());
}

void ManagedForecaster::record_fit(bool ok, double seconds) {
  if (ok) ++fits_completed_;
  training_seconds_ += seconds;
  if (fits_total_ != nullptr) {
    if (ok) {
      fits_total_->inc();
    } else {
      fit_failures_total_->inc();
    }
    fit_seconds_->observe(seconds);
  }
}

void ManagedForecaster::observe_all(std::span<ManagedForecaster> models,
                                    std::span<const double> values) {
  RESMON_REQUIRE(models.size() == values.size(),
                 "observe_all needs one value per model");
  std::vector<ManagedForecaster*> lockstep;
  std::vector<ArimaForecaster*> arima;
  std::vector<std::span<const double>> series;
  for (std::size_t i = 0; i < models.size(); ++i) {
    ManagedForecaster& m = models[i];
    if (!m.record(values[i])) continue;
    auto* a = dynamic_cast<ArimaForecaster*>(m.model_.get());
    // The lockstep batch takes the first due ARIMA model's order and
    // history length; a model that differs fits alone.
    if (a == nullptr || m.history_.size() < a->min_series_length() ||
        (!arima.empty() && (a->order() != arima[0]->order() ||
                            m.history_.size() != series[0].size()))) {
      m.refit();
      continue;
    }
    lockstep.push_back(&m);
    arima.push_back(a);
    series.push_back(m.history_);
  }
  if (arima.empty()) return;
  const auto start = std::chrono::steady_clock::now();
  ArimaForecaster::fit_lockstep(arima, series);
  const double share = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count() /
                       static_cast<double>(arima.size());
  for (ManagedForecaster* m : lockstep) m->record_fit(true, share);
}

double ManagedForecaster::forecast(std::size_t h) const {
  RESMON_REQUIRE(h >= 1, "forecast horizon must be >= 1");
  if (history_.empty()) {
    throw InvalidState("ManagedForecaster: no observations yet");
  }
  if (!ready()) return history_.back();
  return model_->forecast(h);
}

}  // namespace resmon::forecast
