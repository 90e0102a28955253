#include "sim/completion_experiment.hpp"

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "sim/evaluate.hpp"

namespace resmon::sim {

CompletionExperimentResult run_completion_experiment(
    const trace::Trace& trace, std::size_t resource, double sample_rate,
    std::size_t window, const completion::CompletionOptions& options,
    std::size_t eval_stride) {
  RESMON_REQUIRE(resource < trace.num_resources(),
                 "completion experiment: resource out of range");
  RESMON_REQUIRE(sample_rate > 0.0 && sample_rate <= 1.0,
                 "completion experiment: sample rate must be in (0,1]");
  RESMON_REQUIRE(window >= 2 && window <= trace.num_steps(),
                 "completion experiment: bad window");
  RESMON_REQUIRE(eval_stride >= 1, "completion experiment: bad stride");

  const std::size_t n = trace.num_nodes();
  Rng rng(options.seed + 1);

  // Random per-(node, step) sampling, as in the compressed-sensing
  // baselines; last received value retained for the hold comparison (0
  // until a node's first sample).
  std::vector<double> last_value(n, 0.0);

  // Sliding window of observed entries (front of the deque semantics via
  // ring indexing: column w-1 is the current step).
  Matrix window_values(n, window);
  std::vector<bool> window_mask(n * window, false);

  core::RmseAccumulator completion_acc;
  core::RmseAccumulator hold_acc;
  std::vector<double> current(n);
  std::uint64_t transmissions = 0;

  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    // Shift the window left by one column.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c + 1 < window; ++c) {
        window_values(i, c) = window_values(i, c + 1);
        window_mask[i * window + c] = window_mask[i * window + c + 1];
      }
      window_values(i, window - 1) = 0.0;
      window_mask[i * window + window - 1] = false;
    }
    // Sample.
    for (std::size_t i = 0; i < n; ++i) {
      const bool sample = t == 0 || rng.bernoulli(sample_rate);
      if (!sample) continue;
      ++transmissions;
      const double v = trace.value(i, t, resource);
      window_values(i, window - 1) = v;
      window_mask[i * window + window - 1] = true;
      last_value[i] = v;
    }
    if (t < window || t % eval_stride != 0) continue;

    // Reconstruct the window and read off the current column.
    const Matrix completed =
        completion::complete_matrix(window_values, window_mask, options);
    for (std::size_t i = 0; i < n; ++i) current[i] = completed(i, window - 1);
    const Matrix truth = truth_at(trace, t, resource, 1);
    completion_acc.add(core::rmse_step(truth, current));
    hold_acc.add(core::rmse_step(truth, last_value));
  }
  RESMON_REQUIRE(completion_acc.count() > 0,
                 "completion experiment: nothing evaluated");

  CompletionExperimentResult result;
  result.rmse = completion_acc.value();
  result.hold_rmse = hold_acc.value();
  result.actual_sample_rate =
      static_cast<double>(transmissions) /
      static_cast<double>(n * trace.num_steps());
  return result;
}

}  // namespace resmon::sim
