// Ablation — forecasting model family on the centroid series.
//
// Extends the Fig. 9 comparison with Holt-Winters exponential smoothing
// (the model most production monitoring systems use) and AICc-selected
// ARIMA, at a few horizons on one dataset. LSTM is included behind --lstm
// (it dominates the runtime).
//
// Expected shape: everything beats sample-and-hold at larger horizons;
// ARIMA variants and Holt are close; AutoARIMA matches or slightly beats
// the fixed order at the cost of fit time.
#include "bench_util.hpp"

#include "sim/driver.hpp"

namespace {

using namespace resmon;

/// Slots before the first fit; scoring starts there.
constexpr std::size_t kWarmup = 400;

double run_model(const trace::Trace& t, forecast::ForecasterKind kind,
                 std::size_t h, std::size_t threads) {
  core::PipelineOptions o;
  o.num_clusters = 3;
  o.forecaster = kind;
  o.schedule = {.initial_steps = kWarmup, .retrain_interval = 288};
  o.num_threads = threads;
  sim::Driver driver(t, o);
  return bench::driver_rmse(driver, t, h, kWarmup, 20);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"lstm"});
  trace::SyntheticProfile profile =
      bench::profile_from_args(args, args.get("dataset", "alibaba"));
  if (!args.has("steps") && !args.get_bool("full")) profile.num_steps = 2000;
  if (profile.num_steps <= kWarmup + 25) {
    throw InvalidArgument(
        "--steps " + std::to_string(profile.num_steps) +
        " scores no slot at h = 25: it must exceed the warm-up + 25 = " +
        std::to_string(kWarmup + 25));
  }

  bench::banner("Ablation: forecasting models",
                "Pipeline RMSE by model family (K = 3, B = 0.3)");
  const trace::InMemoryTrace t =
      trace::generate(profile, args.get_int("seed", 1));

  std::vector<std::pair<std::string, forecast::ForecasterKind>> models{
      {"SampleHold", forecast::ForecasterKind::kSampleHold},
      {"Holt", forecast::ForecasterKind::kHoltWinters},
      {"ARIMA(2,0,1)", forecast::ForecasterKind::kArima},
      {"AutoARIMA", forecast::ForecasterKind::kAutoArima},
  };
  if (args.get_bool("lstm")) {
    models.emplace_back("LSTM", forecast::ForecasterKind::kLstm);
  }

  Table table({"model", "RMSE h=1", "RMSE h=5", "RMSE h=25"}, 4);
  const std::size_t threads = args.get_threads();
  for (const auto& [label, kind] : models) {
    table.add_row({label, run_model(t, kind, 1, threads),
                   run_model(t, kind, 5, threads),
                   run_model(t, kind, 25, threads)});
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: model-based forecasts beat SampleHold as "
               "h grows; the families are close on smooth centroid "
               "series.\n";
  return 0;
}
