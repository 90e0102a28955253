// Offline scoring of a MonitoringPipeline against a trace's ground truth:
// RMSE(t, h) of eq. (3) and the intermediate RMSE of §VI-C, where t is the
// pipeline's last processed step. A deployed central node has no ground
// truth; these read forecast_all() and the clusterings and compare them
// with a trace of the pipeline's shape.
#pragma once

#include <cstddef>

#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "trace/trace.hpp"

namespace resmon::sim {

/// RMSE(t, h) of eq. (3) against `truth` at step t + h. Requires at least
/// one step and t + h within `truth`.
double rmse_at(const core::MonitoringPipeline& pipeline,
               const trace::Trace& truth, std::size_t h);

/// Intermediate RMSE of the current clustering against `truth` at step t
/// (aggregated over all views/dimensions).
double intermediate_rmse(const core::MonitoringPipeline& pipeline,
                         const trace::Trace& truth);

/// Intermediate RMSE restricted to one dimension of one view. With the
/// default per-resource clustering, `view` selects the resource and `dim`
/// must be 0; with joint clustering, `view` is 0 and `dim` selects the
/// resource. This is what the per-resource panels of Figs. 5-7 report.
double intermediate_rmse(const core::MonitoringPipeline& pipeline,
                         const trace::Trace& truth, std::size_t view,
                         std::size_t dim);

}  // namespace resmon::sim
