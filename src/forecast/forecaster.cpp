#include "forecast/forecaster.hpp"

#include "common/error.hpp"
#include "forecast/arima.hpp"
#include "forecast/lstm.hpp"
#include "forecast/sample_hold.hpp"

namespace resmon::forecast {

std::string to_string(ForecasterKind kind) {
  switch (kind) {
    case ForecasterKind::kSampleHold:
      return "SampleHold";
    case ForecasterKind::kArima:
      return "ARIMA";
    case ForecasterKind::kAutoArima:
      return "AutoARIMA";
    case ForecasterKind::kLstm:
      return "LSTM";
  }
  throw InvalidArgument("unknown forecaster kind");
}

ForecasterKind forecaster_kind_from_string(const std::string& name,
                                           const std::string& context) {
  if (name == "hold" || name == "sample-hold") {
    return ForecasterKind::kSampleHold;
  }
  if (name == "arima") return ForecasterKind::kArima;
  if (name == "auto-arima") return ForecasterKind::kAutoArima;
  if (name == "lstm") return ForecasterKind::kLstm;
  throw InvalidArgument(context + ": unknown model '" + name +
                        "' (expected hold|arima|auto-arima|lstm)");
}

std::unique_ptr<Forecaster> make_forecaster(ForecasterKind kind,
                                            std::uint64_t seed) {
  switch (kind) {
    case ForecasterKind::kSampleHold:
      return std::make_unique<SampleHoldForecaster>();
    case ForecasterKind::kArima:
      // A compact default that tracks persistent utilization series well.
      return std::make_unique<ArimaForecaster>(
          ArimaOrder{.p = 2, .d = 0, .q = 1});
    case ForecasterKind::kAutoArima:
      return std::make_unique<AutoArimaForecaster>();
    case ForecasterKind::kLstm:
      return std::make_unique<LstmForecaster>(LstmOptions{}, seed);
  }
  throw InvalidArgument("unknown forecaster kind");
}

}  // namespace resmon::forecast
