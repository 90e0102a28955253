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
#include <cmath>

#include "bench_util.hpp"

#include "sim/driver.hpp"
#include "sim/evaluate.hpp"

namespace {

using namespace resmon;

double run_model(const trace::Trace& t, forecast::ForecasterKind kind,
                 std::size_t h, std::size_t threads) {
  core::PipelineOptions o;
  o.num_clusters = 3;
  o.forecaster = kind;
  o.schedule = {.initial_steps = 400, .retrain_interval = 288};
  o.num_threads = threads;
  sim::Driver driver(t, o);
  const core::MonitoringPipeline& pipeline = driver.pipeline();
  core::RmseAccumulator acc;
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    driver.step();
    if (step < 400 || step % 20 != 0) continue;
    if (step + h >= t.num_steps()) continue;
    acc.add(sim::rmse_at(pipeline, t, h));
  }
  return acc.value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Ablation: forecasting models",
                "Pipeline RMSE by model family (K = 3, B = 0.3)");

  trace::SyntheticProfile profile =
      bench::profile_from_args(args, args.get("dataset", "alibaba"));
  if (!args.has("steps") && !args.get_bool("full")) profile.num_steps = 2000;
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
