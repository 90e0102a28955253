// Fig. 6 — Intermediate RMSE vs transmission frequency B (K = 3): the
// proposed dynamic clustering vs the minimum-distance baseline and the
// offline static-clustering baseline.
//
// Expected shape: proposed < minimum-distance everywhere and close to (or
// better than) the offline static baseline; curves flatten around B = 0.3,
// which is why the paper picks that default.
#include "bench_util.hpp"
#include "clustering_methods.hpp"

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"k"});
  bench::banner("Fig. 6",
                "Intermediate RMSE vs transmission frequency B (K = 3): "
                "proposed vs minimum-distance vs static (offline)");

  const std::size_t k = static_cast<std::size_t>(args.get_int("k", 3));
  Table table({"dataset", "resource", "B", "Proposed", "Min-distance",
               "Static (offline)"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    const trace::InMemoryTrace t = bench::trace_from_args(args, name);
    for (const double b : {0.05, 0.1, 0.2, 0.3, 0.5, 0.8}) {
      const bench::ClusteringSweepResult r =
          bench::clustering_sweep(t, b, k, args.get_int("seed", 1));
      for (std::size_t res = 0; res < t.num_resources(); ++res) {
        table.add_row({name, trace::resource_name(res), b, r.proposed[res],
                       r.min_distance[res], r.statik[res]});
      }
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: Proposed < Min-distance at every B; the "
               "curve flattens near B = 0.3.\n";
  return 0;
}
