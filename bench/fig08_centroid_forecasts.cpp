// Fig. 8 — Instantaneous true vs forecasted (h = 5) centroid values of the
// K = 3 clusters on the Alibaba-profile CPU data, t in [1000, 2000].
//
// Expected shape: ARIMA and LSTM trajectories hug the true centroid series;
// sample-and-hold lags it by roughly h steps.
#include <map>

#include "bench_util.hpp"

#include "sim/driver.hpp"

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Fig. 8",
                "True vs forecasted (h = 5) centroid trajectories, K = 3, "
                "Alibaba-profile CPU");

  trace::SyntheticProfile profile =
      bench::profile_from_args(args, args.get("dataset", "alibaba"));
  profile.num_resources = 1;  // CPU panel only, as in the figure
  profile.num_steps = std::max<std::size_t>(profile.num_steps, 2100);
  const trace::InMemoryTrace t =
      trace::generate(profile, args.get_int("seed", 1));

  const std::size_t h = static_cast<std::size_t>(args.get_int("h", 5));
  const std::size_t t0 = static_cast<std::size_t>(args.get_int("t0", 1000));
  const std::size_t stride =
      static_cast<std::size_t>(args.get_int("stride", 25));
  const std::size_t k = 3;

  auto make_driver = [&](forecast::ForecasterKind kind) {
    core::PipelineOptions o;
    o.max_frequency = 0.3;
    o.num_clusters = k;
    o.forecaster = kind;
    o.schedule = {.initial_steps = t0, .retrain_interval = 288};
    o.seed = 1;  // identical seeds -> identical clustering across pipelines
    o.num_threads = args.get_threads();
    return sim::Driver(t, o);
  };
  sim::Driver hold = make_driver(forecast::ForecasterKind::kSampleHold);
  sim::Driver arima = make_driver(forecast::ForecasterKind::kArima);
  sim::Driver lstm = make_driver(forecast::ForecasterKind::kLstm);

  struct Row {
    double arima[3];
    double hold[3];
    double lstm[3];
  };
  std::map<std::size_t, Row> pending;  // keyed by target step t + h

  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    hold.step();
    arima.step();
    lstm.step();
    if (step >= t0 && (step - t0) % stride == 0 &&
        step + h < t.num_steps()) {
      Row row;
      for (std::size_t j = 0; j < k; ++j) {
        row.arima[j] = arima.pipeline().model(0, j).forecast(h);
        row.hold[j] = hold.pipeline().model(0, j).forecast(h);
        row.lstm[j] = lstm.pipeline().model(0, j).forecast(h);
      }
      pending[step + h] = row;
    }
  }

  Table table({"t", "true c1", "ARIMA c1", "Hold c1", "LSTM c1", "true c2",
               "ARIMA c2", "Hold c2", "LSTM c2", "true c3", "ARIMA c3",
               "Hold c3", "LSTM c3"},
              3);
  for (const auto& [target, row] : pending) {
    std::vector<Table::Cell> cells{static_cast<double>(target)};
    for (std::size_t j = 0; j < k; ++j) {
      // True centroid at the target step: the series the pipeline's own
      // model observed (all three pipelines share the clustering).
      cells.push_back(hold.pipeline().model(0, j).history()[target]);
      cells.push_back(row.arima[j]);
      cells.push_back(row.hold[j]);
      cells.push_back(row.lstm[j]);
    }
    table.add_row(std::move(cells));
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: forecasted trajectories track the true "
               "centroids closely for all three clusters.\n";
  return 0;
}
