#include "core/metrics.hpp"

#include <cmath>

#include "common/error.hpp"

namespace resmon::core {

double rmse_step(const Matrix& truth, const Matrix& estimate) {
  RESMON_REQUIRE(truth.rows() == estimate.rows() &&
                     truth.cols() == estimate.cols(),
                 "rmse_step shape mismatch");
  RESMON_REQUIRE(truth.rows() > 0, "rmse_step on empty matrices");
  double s = 0.0;
  for (std::size_t i = 0; i < truth.rows(); ++i) {
    s += squared_distance(truth.row(i), estimate.row(i));
  }
  return std::sqrt(s / static_cast<double>(truth.rows()));
}

double RmseAccumulator::value() const {
  if (count_ == 0) return 0.0;
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
