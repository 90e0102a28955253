// Ablation — transmission policies under the same budget.
//
// Compares the collection error (RMSE at h = 0) of the paper's
// drift-plus-penalty rule (unclamped and clamped virtual queue), the
// calibrated send-on-delta deadband of the sensor-network literature
// ([13]-[17]), and uniform sampling, plus each policy's achieved frequency.
//
// Expected shape: the Lyapunov rule and the deadband both beat uniform;
// the Lyapunov rule tracks the budget tightly, while the deadband's
// frequency wanders with the workload (the shortcoming §II points out).
#include "bench_util.hpp"

#include "collect/fleet_collector.hpp"
#include "core/metrics.hpp"
#include "sim/evaluate.hpp"

namespace {

using namespace resmon;

struct Result {
  double rmse = 0.0;
  double frequency = 0.0;
};

Result run_policy(const trace::Trace& t, collect::PolicyKind kind, double b,
                  double v0, bool clamp) {
  collect::FleetCollector fleet(
      t, collect::make_policy_factory(kind, b,
                                      {.v0 = v0, .clamp_queue = clamp}));
  transport::CentralStore store(t.num_nodes(), t.num_resources());
  core::RmseAccumulator acc;
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    for (const auto& m : fleet.step(step)) store.apply(m);
    acc.add(core::rmse_step(sim::truth_at(t, step, 0, t.num_resources()),
                            store.values()));
  }
  return {acc.value(), fleet.average_actual_frequency()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"v0"});
  bench::banner("Ablation: transmission policies",
                "Collection error (h = 0) and achieved frequency of each "
                "policy at the same budget");

  const double v0 = args.get_double("v0", 0.5);
  Table table({"dataset", "B", "policy", "RMSE h=0", "actual freq"}, 4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    const trace::InMemoryTrace t = bench::trace_from_args(args, name);
    for (const double b : {0.1, 0.3}) {
      const Result lyapunov =
          run_policy(t, collect::PolicyKind::kAdaptive, b, v0, false);
      const Result clamped =
          run_policy(t, collect::PolicyKind::kAdaptive, b, v0, true);
      const Result deadband =
          run_policy(t, collect::PolicyKind::kDeadband, b, v0, false);
      const Result uniform =
          run_policy(t, collect::PolicyKind::kUniform, b, v0, false);
      table.add_row({name, b, std::string("drift-plus-penalty (paper)"),
                     lyapunov.rmse, lyapunov.frequency});
      table.add_row({name, b, std::string("drift-plus-penalty, clamped Q"),
                     clamped.rmse, clamped.frequency});
      table.add_row({name, b, std::string("calibrated deadband"),
                     deadband.rmse, deadband.frequency});
      table.add_row({name, b, std::string("uniform"), uniform.rmse,
                     uniform.frequency});
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: adaptive policies beat uniform; the "
               "Lyapunov rule holds the budget exactly, the deadband only "
               "approximately.\n";
  return 0;
}
