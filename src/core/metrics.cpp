#include "core/metrics.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace resmon::core {
namespace {

/// Eq. (3) over columns [first, first + count) of `truth` and of the
/// row-major `estimate` block of truth's shape, summed node by node.
double rmse_columns(const Matrix& truth, std::span<const double> estimate,
                    std::size_t first, std::size_t count) {
  RESMON_REQUIRE(estimate.size() == truth.rows() * truth.cols(),
                 "rmse_step shape mismatch");
  RESMON_REQUIRE(truth.rows() > 0, "rmse_step on empty matrices");
  double s = 0.0;
  for (std::size_t i = 0; i < truth.rows(); ++i) {
    s += squared_distance(truth.row(i).subspan(first, count),
                          estimate.subspan(i * truth.cols() + first, count));
  }
  return std::sqrt(s / static_cast<double>(truth.rows()));
}

}  // namespace

double rmse_step(const Matrix& truth, const Matrix& estimate) {
  RESMON_REQUIRE(truth.rows() == estimate.rows() &&
                     truth.cols() == estimate.cols(),
                 "rmse_step shape mismatch");
  return rmse_step(truth, estimate.data());
}

double rmse_step(const Matrix& truth, std::span<const double> estimate) {
  return rmse_columns(truth, estimate, 0, truth.cols());
}

double rmse_step(const Matrix& truth, std::span<const double> estimate,
                 std::size_t column) {
  RESMON_REQUIRE(column < truth.cols(), "rmse_step column out of range");
  return rmse_columns(truth, estimate, column, 1);
}

double RmseAccumulator::value() const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  return std::sqrt(sum_squares_ / static_cast<double>(count_));
}

double intermediate_rmse_step(const Matrix& truth,
                              const cluster::Clustering& clustering) {
  RESMON_REQUIRE(truth.rows() == clustering.assignment.size(),
                 "intermediate_rmse_step node count mismatch");
  RESMON_REQUIRE(truth.cols() == clustering.centroids.cols(),
                 "intermediate_rmse_step dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < truth.rows(); ++i) {
    s += squared_distance(
        truth.row(i), clustering.centroids.row(clustering.assignment[i]));
  }
  return std::sqrt(s / static_cast<double>(truth.rows()));
}

}  // namespace resmon::core
