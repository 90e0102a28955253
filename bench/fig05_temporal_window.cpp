// Fig. 5 — Intermediate RMSE vs the temporal clustering dimension: cluster
// on feature vectors spanning the last w stored snapshots, for
// w in {1, 5, 10, 20, 30}.
//
// Expected shape: w = 1 (clustering the most recent measurements only) is
// best on every dataset — the clustering should adapt to the newest data.
#include "bench_util.hpp"

#include "sim/driver.hpp"
#include "sim/evaluate.hpp"

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"b", "k"});
  bench::banner("Fig. 5",
                "Intermediate RMSE when clustering on temporal windows of "
                "w snapshots (B = 0.3, K = 3)");

  Table table({"dataset", "resource", "window w", "intermediate RMSE"}, 4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    const trace::InMemoryTrace t = bench::trace_from_args(args, name);
    for (const std::size_t w : {1u, 5u, 10u, 20u, 30u}) {
      core::PipelineOptions o;
      o.max_frequency = args.get_double("b", 0.3);
      o.num_clusters = static_cast<std::size_t>(args.get_int("k", 3));
      o.temporal_window = w;
      o.num_threads = args.get_threads();
      sim::Driver driver(t, o);

      std::vector<core::RmseAccumulator> acc(t.num_resources());
      while (!driver.done()) {
        driver.step();
        for (std::size_t r = 0; r < t.num_resources(); ++r) {
          acc[r].add(sim::intermediate_rmse(driver.pipeline(), t, r, 0));
        }
      }
      for (std::size_t r = 0; r < t.num_resources(); ++r) {
        table.add_row({name, trace::resource_name(r),
                       static_cast<double>(w), acc[r].value()});
      }
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: w = 1 gives the lowest intermediate RMSE "
               "on every dataset/resource.\n";
  return 0;
}
