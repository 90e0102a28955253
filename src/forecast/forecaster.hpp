// Time-series forecasting interface (§V-C).
//
// One Forecaster instance is trained per cluster on that cluster's centroid
// series. Models are (re)fitted periodically on the full history and their
// transient state is updated with every new observation in between, exactly
// as §V-C describes.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace resmon::forecast {

/// A univariate time-series forecasting model.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// (Re)train on the full history, replacing any previous state.
  virtual void fit(std::span<const double> series) = 0;

  /// Append one new observation, updating the model's transient state
  /// (not its trained parameters). Valid only after fit().
  virtual void update(double value) = 0;

  /// Point forecast h >= 1 steps after the last observation.
  /// Valid only after fit().
  virtual double forecast(std::size_t h) const = 0;

  /// True once fit() has succeeded.
  virtual bool is_fitted() const = 0;

  /// Short model name for reports ("ARIMA", "LSTM", "SampleHold").
  virtual std::string name() const = 0;
};

/// The models evaluated in the paper.
enum class ForecasterKind {
  kSampleHold,  ///< forecast = last observed value
  kArima,       ///< fixed-order seasonal ARIMA
  kAutoArima,   ///< AICc grid search over seasonal ARIMA orders (§VI-A3)
  kLstm,        ///< stacked LSTM + dense ReLU heads (§VI-A3)
};

std::string to_string(ForecasterKind kind);

/// The kind spelled `name`: hold (or sample-hold), arima, auto-arima or
/// lstm. Throws InvalidArgument("<context>: unknown model ...") for any
/// other name.
ForecasterKind forecaster_kind_from_string(const std::string& name,
                                           const std::string& context);

/// Construct a forecaster of the given kind with library defaults.
/// `seed` feeds stochastic models (LSTM initialization / shuffling).
std::unique_ptr<Forecaster> make_forecaster(ForecasterKind kind,
                                            std::uint64_t seed);

}  // namespace resmon::forecast
