#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/managed.hpp"
#include "forecast/arima.hpp"
#include "forecast/sample_hold.hpp"

namespace resmon::forecast {
namespace {

TEST(SampleHold, ForecastIsLastValue) {
  SampleHoldForecaster f;
  const std::vector<double> series{0.1, 0.2, 0.7};
  f.fit(series);
  EXPECT_DOUBLE_EQ(f.forecast(1), 0.7);
  EXPECT_DOUBLE_EQ(f.forecast(50), 0.7);
}

TEST(SampleHold, UpdateMovesTheHold) {
  SampleHoldForecaster f;
  f.fit(std::vector<double>{0.5});
  f.update(0.9);
  EXPECT_DOUBLE_EQ(f.forecast(3), 0.9);
}

TEST(SampleHold, UsageBeforeFitThrows) {
  SampleHoldForecaster f;
  EXPECT_FALSE(f.is_fitted());
  EXPECT_THROW(f.update(0.1), InvalidState);
  EXPECT_THROW(f.forecast(1), InvalidState);
  EXPECT_THROW(f.fit(std::vector<double>{}), InvalidArgument);
}

TEST(SampleHold, HorizonZeroRejected) {
  SampleHoldForecaster f;
  f.fit(std::vector<double>{0.5});
  EXPECT_THROW(f.forecast(0), InvalidArgument);
}

TEST(ForecasterFactory, MakesEveryKind) {
  for (const ForecasterKind kind :
       {ForecasterKind::kSampleHold, ForecasterKind::kArima,
        ForecasterKind::kAutoArima, ForecasterKind::kLstm}) {
    const auto f = make_forecaster(kind, 1);
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->is_fitted());
    EXPECT_FALSE(f->name().empty());
  }
}

TEST(ForecasterFactory, ParsesNames) {
  EXPECT_EQ(forecaster_kind_from_string("hold", "model"),
            ForecasterKind::kSampleHold);
  EXPECT_EQ(forecaster_kind_from_string("arima", "model"),
            ForecasterKind::kArima);
  EXPECT_EQ(forecaster_kind_from_string("auto-arima", "model"),
            ForecasterKind::kAutoArima);
  EXPECT_EQ(forecaster_kind_from_string("lstm", "model"),
            ForecasterKind::kLstm);
  // The spellings of the retired exponential-smoothing model are rejected
  // like any other name outside the paper's models.
  for (const char* name : {"rnn", "holt-winters", "holt"}) {
    SCOPED_TRACE(name);
    try {
      forecaster_kind_from_string(name, "flag --model");
      ADD_FAILURE() << "accepted " << name;
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("flag --model: unknown model '") + name +
                    "' (expected hold|arima|auto-arima|lstm)");
    }
  }
}

TEST(ForecasterFactory, RoundTripsToString) {
  EXPECT_EQ(to_string(ForecasterKind::kSampleHold), "SampleHold");
  EXPECT_EQ(to_string(ForecasterKind::kLstm), "LSTM");
}

// ---- ManagedForecaster ------------------------------------------------

TEST(Managed, ValidatesConstruction) {
  EXPECT_THROW(
      ManagedForecaster(nullptr, {.initial_steps = 10, .retrain_interval = 5}),
      InvalidArgument);
  EXPECT_THROW(ManagedForecaster(std::make_unique<SampleHoldForecaster>(),
                                 {.initial_steps = 1, .retrain_interval = 5}),
               InvalidArgument);
  EXPECT_THROW(ManagedForecaster(std::make_unique<SampleHoldForecaster>(),
                                 {.initial_steps = 10, .retrain_interval = 0}),
               InvalidArgument);
}

TEST(Managed, FallsBackToHoldBeforeInitialFit) {
  ManagedForecaster m(std::make_unique<SampleHoldForecaster>(),
                      {.initial_steps = 10, .retrain_interval = 5});
  m.observe(0.3);
  EXPECT_FALSE(m.ready());
  EXPECT_DOUBLE_EQ(m.forecast(4), 0.3);  // fallback: last observation
}

TEST(Managed, FitsAtInitialSteps) {
  ManagedForecaster m(std::make_unique<SampleHoldForecaster>(),
                      {.initial_steps = 5, .retrain_interval = 100});
  for (int i = 0; i < 4; ++i) m.observe(0.1 * i);
  EXPECT_FALSE(m.ready());
  m.observe(0.9);  // 5th observation triggers the initial fit
  EXPECT_TRUE(m.ready());
  EXPECT_EQ(m.fits_completed(), 1u);
}

TEST(Managed, RetrainsOnSchedule) {
  ManagedForecaster m(std::make_unique<SampleHoldForecaster>(),
                      {.initial_steps = 4, .retrain_interval = 3});
  for (int i = 0; i < 4; ++i) m.observe(0.5);  // initial fit at 4
  EXPECT_EQ(m.fits_completed(), 1u);
  m.observe(0.5);
  m.observe(0.5);
  EXPECT_EQ(m.fits_completed(), 1u);
  m.observe(0.5);  // 7 = 4 + 3 -> retrain
  EXPECT_EQ(m.fits_completed(), 2u);
  m.observe(0.5);
  m.observe(0.5);
  m.observe(0.5);  // 10 = 4 + 2*3 -> retrain
  EXPECT_EQ(m.fits_completed(), 3u);
}

TEST(Managed, UpdatesTransientStateBetweenFits) {
  ManagedForecaster m(std::make_unique<SampleHoldForecaster>(),
                      {.initial_steps = 3, .retrain_interval = 100});
  m.observe(0.1);
  m.observe(0.2);
  m.observe(0.3);  // fit here
  m.observe(0.8);  // update
  EXPECT_DOUBLE_EQ(m.forecast(2), 0.8);
}

TEST(Managed, ForecastWithoutObservationsThrows) {
  ManagedForecaster m(std::make_unique<SampleHoldForecaster>(),
                      {.initial_steps = 3, .retrain_interval = 5});
  EXPECT_THROW(m.forecast(1), InvalidState);
}

TEST(Managed, UnfittableModelStaysInFallbackRegime) {
  // A seasonal ARIMA whose season is far longer than the data available at
  // the scheduled fit: fit() throws NumericalError internally and the
  // manager must keep serving the sample-and-hold fallback.
  auto model = std::make_unique<ArimaForecaster>(
      ArimaOrder{.p = 0, .d = 0, .q = 0, .sp = 1, .sd = 1, .sq = 0,
                 .season = 500});
  ManagedForecaster m(std::move(model),
                      {.initial_steps = 10, .retrain_interval = 20});
  for (int i = 0; i < 40; ++i) m.observe(0.3 + 0.001 * i);
  EXPECT_FALSE(m.ready());
  EXPECT_EQ(m.fits_completed(), 0u);
  EXPECT_DOUBLE_EQ(m.forecast(5), 0.3 + 0.001 * 39);  // last observation
}

TEST(Managed, TracksTrainingTime) {
  ManagedForecaster m(std::make_unique<SampleHoldForecaster>(),
                      {.initial_steps = 2, .retrain_interval = 2});
  for (int i = 0; i < 10; ++i) m.observe(0.5);
  EXPECT_GE(m.total_training_seconds(), 0.0);
  EXPECT_GT(m.fits_completed(), 1u);
}

}  // namespace
}  // namespace resmon::forecast
