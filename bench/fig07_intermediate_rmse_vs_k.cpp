// Fig. 7 — Intermediate RMSE vs the number of clusters K (B = 0.3).
//
// Expected shape: the proposed approach is close to its floor already at
// small K (a handful of centroids summarize the whole fleet); the floor is
// above zero even at K = N because B = 0.3 keeps the stored measurements
// stale. Minimum-distance needs much larger K to catch up.
#include "bench_util.hpp"
#include "clustering_methods.hpp"

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"b"});
  bench::banner("Fig. 7",
                "Intermediate RMSE vs number of clusters K (B = 0.3)");

  const double b = args.get_double("b", 0.3);
  Table table({"dataset", "resource", "K", "Proposed", "Min-distance",
               "Static (offline)"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    const trace::InMemoryTrace t = bench::trace_from_args(args, name);
    std::vector<std::size_t> ks{1, 2, 3, 5, 10, 20, 50};
    ks.push_back(t.num_nodes());  // K = N endpoint of the paper's sweep
    for (const std::size_t k : ks) {
      if (k > t.num_nodes()) continue;
      const bench::ClusteringSweepResult r =
          bench::clustering_sweep(t, b, k, args.get_int("seed", 1));
      for (std::size_t res = 0; res < t.num_resources(); ++res) {
        table.add_row({name, trace::resource_name(res), std::to_string(k),
                       r.proposed[res],
                       r.min_distance[res], r.statik[res]});
      }
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: Proposed near its floor by K ~ 3-5; floor "
               "> 0 because B = 0.3 leaves stale measurements.\n";
  return 0;
}
