// Table III — RMSE for different values of M (similarity look-back,
// eq. (10)) and M' (membership/offset look-back, §V-C) on the Google-
// profile CPU data, for h in {1, 5, 10}.
//
// Expected shape: M = 1 is a good default everywhere; small M' is best at
// h = 1 and its advantage shrinks as the horizon grows (forecast farther
// -> rely on longer-term membership).
#include <cmath>

#include "bench_util.hpp"

#include "core/metrics.hpp"
#include "sim/driver.hpp"

namespace {

using namespace resmon;

double resource_rmse(const trace::Trace& t, std::size_t step,
                     std::size_t resource, const Matrix& estimate) {
  double se = 0.0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    const double e = estimate(i, resource) - t.value(i, step, resource);
    se += e * e;
  }
  return std::sqrt(se / static_cast<double>(t.num_nodes()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Table III",
                "RMSE for different (M, M') look-backs, Google-profile "
                "CPU, sample-and-hold, K = 3");

  trace::SyntheticProfile profile =
      bench::profile_from_args(args, args.get("dataset", "google"));
  profile.num_resources = 1;  // the table uses CPU only
  const trace::InMemoryTrace t =
      trace::generate(profile, args.get_int("seed", 1));

  const std::vector<std::size_t> ms{1, 5, 12, 100};
  const std::vector<std::size_t> mprimes{1, 5, 12, 100};
  const std::vector<std::size_t> hs{1, 5, 10};
  const std::size_t eval_stride =
      static_cast<std::size_t>(args.get_int("eval-stride", 10));

  Table table({"h", "M", "M'", "RMSE"}, 4);
  for (const std::size_t h : hs) {
    for (const std::size_t m : ms) {
      for (const std::size_t mp : mprimes) {
        core::PipelineOptions o;
        o.max_frequency = 0.3;
        o.num_clusters = 3;
        o.similarity_lookback = m;
        o.offset_lookback = mp;
        o.forecaster = forecast::ForecasterKind::kSampleHold;
        o.schedule = {.initial_steps = 100, .retrain_interval = 288};
        o.seed = 1;
        o.num_threads = args.get_threads();
        sim::Driver driver(t, o);

        core::RmseAccumulator acc;
        for (std::size_t step = 0; step < t.num_steps(); ++step) {
          driver.step();
          if (step < 150 || step % eval_stride != 0) continue;
          if (step + h >= t.num_steps()) continue;
          acc.add(resource_rmse(t, step + h, 0,
                                driver.pipeline().forecast_all(h)));
        }
        table.add_row({static_cast<double>(h), static_cast<double>(m),
                       static_cast<double>(mp), acc.value()});
      }
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: M = 1 is a consistently good choice, "
               "M = 100 clearly worse; the penalty for larger M' shrinks "
               "as h grows (longer-horizon forecasts rely on longer-term "
               "membership).\n";
  return 0;
}
