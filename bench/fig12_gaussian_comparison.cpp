// Fig. 12 — Comparison with the Gaussian-based method of [3] under its own
// train/test protocol (§VI-E): 100 nodes, a 500-step training phase with
// full transmission, a 500-step testing phase in which only K monitors
// report.
//
// Paper's shape: Proposed (K-means monitors) < Min-distance < the three
// Gaussian selection algorithms. The closing line prints the measured order,
// which differs (EXPERIMENTS.md, Fig. 12: "Not reproduced, deliberately").
#include <algorithm>
#include <numeric>

#include "bench_util.hpp"

#include "sim/monitor_experiment.hpp"

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

  const std::vector<sim::MonitorMethod> methods{
      sim::MonitorMethod::kProposed,
      sim::MonitorMethod::kMinimumDistance,
      sim::MonitorMethod::kTopW,
      sim::MonitorMethod::kTopWUpdate,
      sim::MonitorMethod::kBatchSelection,
  };

  Table table({"dataset", "resource", "K", "Proposed", "Min-distance",
               "Top-W", "Top-W-Update", "Batch Selection"},
              4);
  std::vector<double> rmse_sums(methods.size(), 0.0);
  std::size_t proposed_lowest = 0;
  for (const std::string& name : bench::datasets_from_args(args)) {
    trace::SyntheticProfile profile = bench::profile_from_args(args, name);
    profile.num_nodes = nodes;
    profile.num_steps = std::max<std::size_t>(profile.num_steps, 1000);
    const trace::InMemoryTrace t =
        trace::generate(profile, args.get_int("seed", 1));

    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      for (const std::size_t k : ks) {
        sim::MonitorExperimentOptions opts;
        opts.resource = r;
        opts.num_monitors = k;
        opts.train_steps = 500;
        opts.test_steps = 500;
        opts.seed = args.get_int("seed", 1);

        std::vector<Table::Cell> row{name, trace::resource_name(r),
                                     std::to_string(k)};
        std::vector<double> rmses(methods.size());
        for (std::size_t m = 0; m < methods.size(); ++m) {
          rmses[m] = sim::run_monitor_experiment(t, methods[m], opts).rmse;
          rmse_sums[m] += rmses[m];
          row.push_back(rmses[m]);
        }
        if (std::min_element(rmses.begin(), rmses.end()) == rmses.begin()) {
          ++proposed_lowest;
        }
        table.add_row(std::move(row));
      }
    }
  }
  bench::emit(table, args);
  std::vector<std::size_t> order(methods.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return rmse_sums[a] < rmse_sums[b];
  });
  std::cout << "\nMeasured order by mean RMSE over the " << table.num_rows()
            << " rows, lowest first:";
  for (const std::size_t m : order) {
    std::cout << (m == order.front() ? " " : " < ")
              << sim::to_string(methods[m]);
  }
  std::cout << ".\nProposed is lowest in " << proposed_lowest << " of "
            << table.num_rows()
            << " rows; the paper has it lowest at every K (EXPERIMENTS.md, "
               "Fig. 12: \"Not reproduced, deliberately\").\n";
  return 0;
}
