// Fig. 4 — RMSE (h = 0, i.e. error caused only by infrequent transmission)
// of the proposed adaptive transmission method vs the uniform sampling
// baseline, per dataset and resource, sweeping the required frequency B.
//
// Expected shape: adaptive <= uniform at every B, both falling to 0 at
// B = 1.
//
// Note on V0: with utilizations normalized to [0,1] the paper's V0 = 1e-12
// makes the V*F term negligible against the virtual queue, which reproduces
// the budget tracking of Fig. 3 but not the adaptive gain of Fig. 4. This
// harness defaults to V0 = 0.5 (the same qualitative rule, with the penalty
// term rescaled to the data's units); run with --v0 1e-12 for the paper's
// literal constant. See EXPERIMENTS.md.
#include <cmath>

#include "bench_util.hpp"

#include "collect/fleet_collector.hpp"
#include "core/metrics.hpp"

namespace {

using namespace resmon;

/// Time-averaged per-resource RMSE (eq. (4) with h = 0) for one policy.
std::vector<double> h0_rmse(const trace::Trace& t,
                            collect::PolicyKind kind, double b, double v0,
                            double gamma) {
  collect::FleetCollector fleet(
      t, collect::make_policy_factory(kind, b, v0, gamma));
  transport::CentralStore store(t.num_nodes(), t.num_resources());
  std::vector<core::RmseAccumulator> acc(t.num_resources());
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    for (const auto& m : fleet.step(step)) store.apply(m);
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      double se = 0.0;
      for (std::size_t i = 0; i < t.num_nodes(); ++i) {
        const double e = store.stored(i)[r] - t.value(i, step, r);
        se += e * e;
      }
      acc[r].add(std::sqrt(se / static_cast<double>(t.num_nodes())));
    }
  }
  std::vector<double> out;
  out.reserve(acc.size());
  for (const auto& a : acc) out.push_back(a.value());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Fig. 4",
                "RMSE(h=0) of adaptive transmission vs uniform sampling");

  const double v0 = args.get_double("v0", 0.5);
  const double gamma = args.get_double("gamma", 0.65);

  Table table({"dataset", "resource", "B", "RMSE adaptive", "RMSE uniform"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    trace::SyntheticProfile profile = bench::profile_from_args(args, name);
    const trace::InMemoryTrace t =
        trace::generate(profile, args.get_int("seed", 1));
    for (const double b : {0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0}) {
      const std::vector<double> adaptive =
          h0_rmse(t, collect::PolicyKind::kAdaptive, b, v0, gamma);
      const std::vector<double> uniform =
          h0_rmse(t, collect::PolicyKind::kUniform, b, v0, gamma);
      for (std::size_t r = 0; r < t.num_resources(); ++r) {
        table.add_row({name, trace::resource_name(r), b, adaptive[r],
                       uniform[r]});
      }
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: adaptive <= uniform for every B; both "
               "reach 0 at B = 1.\n";
  return 0;
}
