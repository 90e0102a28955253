// Ablation — the V0 control parameter of the adaptive transmission rule.
//
// V_t = V0 * (t+1)^gamma weights the staleness penalty against the virtual
// queue (eq. (7)). Tiny V0 makes the rule behave like uniform sampling
// (budget-driven timing); larger V0 times transmissions by error magnitude,
// improving RMSE at the cost of looser finite-horizon budget compliance.
// This sweep shows that trade-off and why the harnesses default to
// V0 ~ 0.5 on normalized utilizations (see DESIGN.md on the paper's
// V0 = 1e-12).
#include "bench_util.hpp"

#include "collect/fleet_collector.hpp"
#include "core/metrics.hpp"
#include "sim/evaluate.hpp"

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"b"});
  bench::banner("Ablation: V0 sweep",
                "RMSE(h=0) and achieved frequency vs V0 at B = 0.3 "
                "(uniform baseline shown for reference)");

  Table table({"dataset", "V0", "RMSE h=0", "actual freq"}, 4);
  const double b = args.get_double("b", 0.3);
  for (const std::string& name : bench::datasets_from_args(args)) {
    const trace::InMemoryTrace t = bench::trace_from_args(args, name);

    auto measure = [&](collect::PolicyKind kind, double v0) {
      collect::FleetCollector fleet(
          t, collect::make_policy_factory(kind, b, {.v0 = v0}));
      transport::CentralStore store(t.num_nodes(), t.num_resources());
      core::RmseAccumulator acc;
      for (std::size_t step = 0; step < t.num_steps(); ++step) {
        for (const auto& m : fleet.step(step)) store.apply(m);
        acc.add(core::rmse_step(
            sim::truth_at(t, step, 0, t.num_resources()), store.values()));
      }
      table.add_row({name,
                     kind == collect::PolicyKind::kUniform
                         ? std::string("(uniform)")
                         : std::string(std::to_string(v0)),
                     acc.value(), fleet.average_actual_frequency()});
    };

    for (const double v0 : {1e-12, 1e-3, 0.05, 0.2, 0.5, 2.0, 10.0}) {
      measure(collect::PolicyKind::kAdaptive, v0);
    }
    measure(collect::PolicyKind::kUniform, 0.0);
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: V0 -> 0 reproduces uniform sampling; "
               "increasing V0 improves the RMSE while finite-horizon budget "
               "compliance loosens slightly (the queue needs longer to "
               "catch up).\n";
  return 0;
}
