// Table I — Intermediate RMSE of clustering independent scalars (one
// K-means per resource type) vs clustering full measurement vectors (one
// joint K-means over all resources).
//
// Expected shape: scalar (per-resource) clustering wins on every
// dataset/resource, because CPU and memory are only weakly correlated.
#include "bench_util.hpp"

#include "sim/driver.hpp"
#include "sim/evaluate.hpp"

namespace {

using namespace resmon;

/// Time-averaged per-resource intermediate RMSE for one clustering mode.
std::vector<double> run_mode(const trace::Trace& t, bool per_resource,
                             const Args& args) {
  core::PipelineOptions o;
  o.max_frequency = args.get_double("b", 0.3);
  o.num_clusters = static_cast<std::size_t>(args.get_int("k", 3));
  o.cluster_per_resource = per_resource;
  o.num_threads = args.get_threads();
  sim::Driver driver(t, o);
  const core::MonitoringPipeline& pipeline = driver.pipeline();

  std::vector<core::RmseAccumulator> acc(t.num_resources());
  while (!driver.done()) {
    driver.step();
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      // Scalar mode: view = resource, dim = 0. Joint mode: view = 0,
      // dim = resource.
      acc[r].add(per_resource ? sim::intermediate_rmse(pipeline, t, r, 0)
                              : sim::intermediate_rmse(pipeline, t, 0, r));
    }
  }
  std::vector<double> out;
  for (const auto& a : acc) out.push_back(a.value());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Table I",
                "Intermediate RMSE: independent per-resource scalar "
                "clustering vs joint full-vector clustering (B = 0.3, "
                "K = 3)");

  Table table({"resource & dataset", "Scalar", "Full"}, 3);
  for (const std::string& name : bench::datasets_from_args(args)) {
    trace::SyntheticProfile profile = bench::profile_from_args(args, name);
    const trace::InMemoryTrace t =
        trace::generate(profile, args.get_int("seed", 1));
    const std::vector<double> scalar = run_mode(t, true, args);
    const std::vector<double> full = run_mode(t, false, args);
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      table.add_row({trace::resource_name(r) + " " + name, scalar[r],
                     full[r]});
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: Scalar < Full on every row (Table I shows "
               "the same ordering on all three real traces).\n";
  return 0;
}
