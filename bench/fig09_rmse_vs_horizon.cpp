// Fig. 9 — Time-averaged RMSE vs forecast horizon h for the full pipeline
// (spatial estimation + temporal forecasting, with per-node offsets):
// ARIMA, LSTM and sample-and-hold on K = 3 clusters, sample-and-hold run
// per node (K = N), and the standard-deviation bound of a long-term-
// statistics-only predictor.
//
// Expected shape: all pipeline variants beat the stddev bound for h <= 50;
// LSTM best; K = N sample-and-hold worse than K = 3 (per-node noise hurts).
//
// Default: one dataset (--dataset alibaba) to keep runtime modest; pass
// --dataset bitbrains / google for the other panels.
#include <cmath>

#include "bench_util.hpp"

#include "core/metrics.hpp"
#include "sim/driver.hpp"

namespace {

using namespace resmon;

std::vector<std::size_t> horizons() { return {1, 5, 10, 25, 50}; }

/// Per-resource RMSE of an N x d estimate matrix against truth at `step`.
double resource_rmse(const trace::Trace& t, std::size_t step,
                     std::size_t resource, const Matrix& estimate) {
  double se = 0.0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    const double e = estimate(i, resource) - t.value(i, step, resource);
    se += e * e;
  }
  return std::sqrt(se / static_cast<double>(t.num_nodes()));
}

/// The paper's "standard deviation computed over all resource utilizations
/// over time": the pooled standard deviation of every (node, step) value of
/// one resource — the error of an offline mechanism that forecasts from
/// long-term statistics only.
double stddev_bound(const trace::Trace& t, std::size_t resource) {
  double mean = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t s = 0; s < t.num_steps(); ++s) {
      mean += t.value(i, s, resource);
      ++count;
    }
  }
  mean /= static_cast<double>(count);
  double se = 0.0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t s = 0; s < t.num_steps(); ++s) {
      const double d = t.value(i, s, resource) - mean;
      se += d * d;
    }
  }
  return std::sqrt(se / static_cast<double>(count));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Fig. 9",
                "Time-averaged RMSE vs forecast horizon h, all forecasting "
                "models (K = 3 unless noted)");

  trace::SyntheticProfile profile =
      bench::profile_from_args(args, args.get("dataset", "alibaba"));
  if (!args.has("steps") && !args.get_bool("full")) {
    profile.num_steps = 2400;
  }
  const trace::InMemoryTrace t =
      trace::generate(profile, args.get_int("seed", 1));

  const std::size_t warmup =
      static_cast<std::size_t>(args.get_int("warmup", 1000));
  const std::size_t eval_stride =
      static_cast<std::size_t>(args.get_int("eval-stride", 20));

  auto make_driver = [&](forecast::ForecasterKind kind) {
    core::PipelineOptions o;
    o.max_frequency = 0.3;
    o.num_clusters = 3;
    o.forecaster = kind;
    o.schedule = {.initial_steps = warmup, .retrain_interval = 288};
    o.seed = 1;
    o.num_threads = args.get_threads();
    return sim::Driver(t, o);
  };
  sim::Driver arima = make_driver(forecast::ForecasterKind::kArima);
  sim::Driver lstm = make_driver(forecast::ForecasterKind::kLstm);
  sim::Driver hold = make_driver(forecast::ForecasterKind::kSampleHold);

  const std::size_t d = t.num_resources();
  const std::vector<std::size_t> hs = horizons();
  // acc[model][resource][h-index]
  std::vector<std::vector<std::vector<core::RmseAccumulator>>> acc(
      4, std::vector<std::vector<core::RmseAccumulator>>(
             d, std::vector<core::RmseAccumulator>(hs.size())));

  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    arima.step();
    lstm.step();
    hold.step();
    if (step < warmup || (step - warmup) % eval_stride != 0) continue;
    for (std::size_t hi = 0; hi < hs.size(); ++hi) {
      const std::size_t h = hs[hi];
      if (step + h >= t.num_steps()) continue;
      const Matrix fa = arima.pipeline().forecast_all(h);
      const Matrix fl = lstm.pipeline().forecast_all(h);
      const Matrix fh = hold.pipeline().forecast_all(h);
      // K = N sample-and-hold = z_t
      const Matrix fz = hold.pipeline().forecast_all(0);
      for (std::size_t r = 0; r < d; ++r) {
        acc[0][r][hi].add(resource_rmse(t, step + h, r, fa));
        acc[1][r][hi].add(resource_rmse(t, step + h, r, fl));
        acc[2][r][hi].add(resource_rmse(t, step + h, r, fh));
        acc[3][r][hi].add(resource_rmse(t, step + h, r, fz));
      }
    }
  }

  Table table({"dataset", "resource", "h", "ARIMA", "LSTM", "Hold K=3",
               "Hold K=N", "Stddev bound"},
              4);
  for (std::size_t r = 0; r < d; ++r) {
    const double bound = stddev_bound(t, r);
    for (std::size_t hi = 0; hi < hs.size(); ++hi) {
      table.add_row({profile.name, trace::resource_name(r),
                     static_cast<double>(hs[hi]), acc[0][r][hi].value(),
                     acc[1][r][hi].value(), acc[2][r][hi].value(),
                     acc[3][r][hi].value(), bound});
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: models < stddev bound for h <= 50; "
               "K = N sample-and-hold worse than K = 3 at larger h.\n";
  return 0;
}
