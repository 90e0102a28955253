// Ablation — the Hungarian re-indexing of eq. (10)/(11).
//
// Without re-indexing, cluster labels are whatever K-means happens to
// return, so each cluster's centroid series jumps between unrelated
// clusters and the per-cluster forecasting models train on garbage.
// Measured: the mean absolute step-to-step change of the centroid series
// (stability) and the forecast RMSE.
//
// Expected shape: with re-indexing the centroid series is far smoother and
// the RMSE is lower.
#include <cmath>

#include "bench_util.hpp"

#include "sim/driver.hpp"

namespace {

using namespace resmon;

struct Result {
  double centroid_jumpiness = 0.0;  // mean |c_{j,t} - c_{j,t-1}|
  double rmse_h5 = 0.0;
};

Result run_config(const trace::Trace& t, bool reindex,
                  std::size_t threads) {
  core::PipelineOptions o;
  o.num_clusters = 3;
  o.reindex_clusters = reindex;
  o.schedule = {.initial_steps = 100, .retrain_interval = 288};
  o.num_threads = threads;
  sim::Driver driver(t, o);
  Result r;
  r.rmse_h5 = bench::driver_rmse(driver, t, 5, 150, 10);
  const core::MonitoringPipeline& pipeline = driver.pipeline();
  double jump = 0.0;
  std::size_t count = 0;
  for (std::size_t v = 0; v < pipeline.num_views(); ++v) {
    for (std::size_t j = 0; j < 3; ++j) {
      const std::span<const double> series = pipeline.model(v, j).history();
      for (std::size_t s = 1; s < series.size(); ++s) {
        jump += std::fabs(series[s] - series[s - 1]);
        ++count;
      }
    }
  }
  r.centroid_jumpiness = jump / static_cast<double>(count);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {});
  bench::banner("Ablation: cluster re-indexing (eq. (10)/(11))",
                "Centroid-series stability and forecast RMSE with and "
                "without the Hungarian matching");

  Table table({"dataset", "reindexing", "centroid step change",
               "RMSE h=5"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    const trace::InMemoryTrace t = bench::trace_from_args(args, name);
    const Result with = run_config(t, true, args.get_threads());
    const Result without = run_config(t, false, args.get_threads());
    table.add_row({name, std::string("on (paper)"),
                   with.centroid_jumpiness, with.rmse_h5});
    table.add_row({name, std::string("off"), without.centroid_jumpiness,
                   without.rmse_h5});
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: re-indexing gives a much smaller centroid "
               "step change and a lower RMSE.\n";
  return 0;
}
