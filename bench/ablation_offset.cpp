// Ablation — the per-node offset of eq. (12).
//
// Compares three forecasting configurations at several horizons:
//   full      — centroid forecast + alpha-scaled offset (the paper),
//   no-alpha  — offset without the alpha clamping,
//   no-offset — bare centroid forecast (x-hat = c-hat).
//
// Expected shape: the offset helps at every horizon (nodes have persistent
// deviations from their centroid). The alpha clamp is a robustness guard
// for deviations that cross into neighbouring clusters; on well-clustered
// traces it can cost a little accuracy versus the unclamped offset.
#include <cmath>

#include "bench_util.hpp"

#include "sim/driver.hpp"
#include "sim/evaluate.hpp"

namespace {

using namespace resmon;

double run_config(const trace::Trace& t, bool use_offset, bool alpha,
                  std::size_t h, std::size_t threads) {
  core::PipelineOptions o;
  o.num_clusters = 3;
  o.use_offset = use_offset;
  o.offset_alpha = alpha;
  o.schedule = {.initial_steps = 100, .retrain_interval = 288};
  o.num_threads = threads;
  sim::Driver driver(t, o);
  const core::MonitoringPipeline& pipeline = driver.pipeline();
  core::RmseAccumulator acc;
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    driver.step();
    if (step < 150 || step % 10 != 0) continue;
    if (step + h >= t.num_steps()) continue;
    acc.add(sim::rmse_at(pipeline, t, h));
  }
  return acc.value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Ablation: per-node offset (eq. (12))",
                "RMSE with the full offset, offset without alpha clamping, "
                "and no offset at all (sample-and-hold, K = 3, B = 0.3)");

  Table table({"dataset", "h", "full (alpha offset)", "offset, no alpha",
               "no offset"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    trace::SyntheticProfile profile = bench::profile_from_args(args, name);
    const trace::InMemoryTrace t =
        trace::generate(profile, args.get_int("seed", 1));
    for (const std::size_t h : {1u, 5u, 25u}) {
      table.add_row({name, static_cast<double>(h),
                     run_config(t, true, true, h, args.get_threads()),
                     run_config(t, true, false, h, args.get_threads()),
                     run_config(t, false, false, h, args.get_threads())});
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: both offset variants < no-offset; the "
               "alpha clamp trades a little accuracy for robustness.\n";
  return 0;
}
