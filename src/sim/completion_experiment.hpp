// The §II-style compressed-sensing monitoring experiment around
// completion::complete_matrix: every step each node transmits its
// measurement independently with probability `sample_rate` (the same
// average budget B as the proposed mechanism); the controller keeps a
// sliding window of the last `window` steps and estimates the *current*
// snapshot from the rank-r completion of the windowed matrix. Each scored
// step is eq. (3) over all nodes, and the run is eq. (4).
#pragma once

#include <cstddef>

#include "completion/matrix_completion.hpp"
#include "trace/trace.hpp"

namespace resmon::sim {

struct CompletionExperimentResult {
  double rmse = 0.0;              ///< eq. (4) of the completed estimates
  double hold_rmse = 0.0;         ///< same sampling, last-value-hold instead
  double actual_sample_rate = 0.0;
};

/// Scores every `eval_stride`-th step from `window` on. Requires a
/// resource of the trace, sample_rate in (0, 1], 2 <= window <=
/// num_steps(), eval_stride >= 1 and at least one scored step.
CompletionExperimentResult run_completion_experiment(
    const trace::Trace& trace, std::size_t resource, double sample_rate,
    std::size_t window, const completion::CompletionOptions& options = {},
    std::size_t eval_stride = 5);

}  // namespace resmon::sim
