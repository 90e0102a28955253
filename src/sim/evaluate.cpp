#include "sim/evaluate.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/matrix.hpp"

namespace resmon::sim {
namespace {

/// The last processed step t, once the pipeline has one, `truth` has its
/// shape and t + h lies within `truth`.
std::size_t scored_step(const core::MonitoringPipeline& pipeline,
                        const trace::Trace& truth, std::size_t h) {
  const transport::CentralStore& store = pipeline.central_store();
  RESMON_REQUIRE(pipeline.current_step() >= 1, "scoring before any step");
  RESMON_REQUIRE(truth.num_nodes() == store.num_nodes() &&
                     truth.num_resources() == store.num_resources(),
                 "truth trace shape differs from the pipeline's");
  RESMON_REQUIRE(pipeline.current_step() - 1 + h < truth.num_steps(),
                 "scoring: t + h beyond end of the truth trace");
  return pipeline.current_step() - 1;
}

/// N x `count` values of `truth` at step t: resources first, first + 1, ...
Matrix truth_at(const trace::Trace& truth, std::size_t t, std::size_t first,
                std::size_t count) {
  Matrix out(truth.num_nodes(), count);
  for (std::size_t i = 0; i < truth.num_nodes(); ++i) {
    for (std::size_t r = 0; r < count; ++r) {
      out(i, r) = truth.value(i, t, first + r);
    }
  }
  return out;
}

}  // namespace

double rmse_at(const core::MonitoringPipeline& pipeline,
               const trace::Trace& truth, std::size_t h) {
  const std::size_t t = scored_step(pipeline, truth, h);
  return core::rmse_step(truth_at(truth, t + h, 0, truth.num_resources()),
                         pipeline.forecast_all(h));
}

double intermediate_rmse(const core::MonitoringPipeline& pipeline,
                         const trace::Trace& truth) {
  const std::size_t t = scored_step(pipeline, truth, 0);
  const bool per_resource = pipeline.options().cluster_per_resource;
  // One sum over every view's nodes, so not built from per-view
  // intermediate_rmse_step() results.
  double total = 0.0;
  for (std::size_t v = 0; v < pipeline.num_views(); ++v) {
    const Matrix expected = per_resource
                                ? truth_at(truth, t, v, 1)
                                : truth_at(truth, t, 0, truth.num_resources());
    const cluster::Clustering& c = pipeline.history(v).at(0).clustering;
    for (std::size_t i = 0; i < truth.num_nodes(); ++i) {
      total += squared_distance(expected.row(i),
                                c.centroids.row(c.assignment[i]));
    }
  }
  return std::sqrt(total / static_cast<double>(truth.num_nodes()));
}

double intermediate_rmse(const core::MonitoringPipeline& pipeline,
                         const trace::Trace& truth, std::size_t view,
                         std::size_t dim) {
  const std::size_t t = scored_step(pipeline, truth, 0);
  const cluster::Clustering& c = pipeline.history(view).at(0).clustering;
  RESMON_REQUIRE(dim < c.centroids.cols(), "dimension index out of range");
  // The view's clustering in dimension `dim` alone: the same terms, summed
  // in the same order, as one column of the centroids.
  cluster::Clustering column{.assignment = c.assignment,
                             .centroids = Matrix(c.centroids.rows(), 1)};
  for (std::size_t j = 0; j < c.centroids.rows(); ++j) {
    column.centroids(j, 0) = c.centroids(j, dim);
  }
  const std::size_t resource =
      pipeline.options().cluster_per_resource ? view : dim;
  return core::intermediate_rmse_step(truth_at(truth, t, resource, 1),
                                      column);
}

}  // namespace resmon::sim
