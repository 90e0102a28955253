// Table III — RMSE for different values of M (similarity look-back,
// eq. (10)) and M' (membership/offset look-back, §V-C) on the Google-
// profile CPU data, for h in {1, 5, 10}.
//
// Expected shape: M = 1 is a good default everywhere; small M' is best at
// h = 1 and its advantage shrinks as the horizon grows (forecast farther
// -> rely on longer-term membership).
#include "bench_util.hpp"

#include "sim/driver.hpp"

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"eval-stride"});
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
  const std::size_t eval_stride = bench::eval_stride(args, 10);

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
        table.add_row({static_cast<double>(h), static_cast<double>(m),
                       static_cast<double>(mp),
                       bench::driver_rmse(driver, t, h, 150, eval_stride)});
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
