// Fig. 12 — Comparison with the Gaussian-based method of [3] under its own
// train/test protocol (§VI-E): 100 nodes, a 500-step training phase with
// full transmission, a 500-step testing phase in which only K monitors
// report.
//
// Expected shape: Proposed (K-means monitors) < Min-distance < the three
// Gaussian selection algorithms — resource-utilization data lacks the
// stable spatial correlation Gaussian inference relies on.
#include "bench_util.hpp"

#include "gaussian/monitor_experiment.hpp"

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"k"});
  bench::banner("Fig. 12",
                "Estimation RMSE vs number of monitors K in the train/test "
                "protocol of [3] (100 nodes, 500 train / 500 test)");

  const std::size_t nodes =
      static_cast<std::size_t>(args.get_int("nodes", 100));
  const std::vector<std::size_t> ks = [&] {
    std::vector<std::size_t> v{5, 10, 25, 50};
    if (args.has("k")) v = {static_cast<std::size_t>(args.get_int("k", 10))};
    return v;
  }();

  const std::vector<gaussian::MonitorMethod> methods{
      gaussian::MonitorMethod::kProposed,
      gaussian::MonitorMethod::kMinimumDistance,
      gaussian::MonitorMethod::kTopW,
      gaussian::MonitorMethod::kTopWUpdate,
      gaussian::MonitorMethod::kBatchSelection,
  };

  Table table({"dataset", "resource", "K", "Proposed", "Min-distance",
               "Top-W", "Top-W-Update", "Batch Selection"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    trace::SyntheticProfile profile = bench::profile_from_args(args, name);
    profile.num_nodes = nodes;
    profile.num_steps = std::max<std::size_t>(profile.num_steps, 1000);
    const trace::InMemoryTrace t =
        trace::generate(profile, args.get_int("seed", 1));

    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      for (const std::size_t k : ks) {
        gaussian::MonitorExperimentOptions opts;
        opts.resource = r;
        opts.num_monitors = k;
        opts.train_steps = 500;
        opts.test_steps = 500;
        opts.seed = args.get_int("seed", 1);

        std::vector<Table::Cell> row{name, trace::resource_name(r),
                                     static_cast<double>(k)};
        for (const gaussian::MonitorMethod method : methods) {
          row.push_back(
              gaussian::run_monitor_experiment(t, method, opts).rmse);
        }
        table.add_row(std::move(row));
      }
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: Proposed lowest at every K; Gaussian "
               "methods trail because long-term spatial correlation is "
               "weak.\n";
  return 0;
}
