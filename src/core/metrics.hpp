// Error metrics of §IV: per-step RMSE (eq. (3)), time-averaged RMSE
// (eq. (4)) and the intermediate RMSE used to evaluate clustering quality
// (§VI-C).
#pragma once

#include <cstddef>
#include <span>

#include "cluster/dynamic_cluster.hpp"
#include "common/matrix.hpp"

namespace resmon::core {

/// RMSE(t, h) of eq. (3): truth and estimate are N x d matrices; the norm
/// runs over the d resource dimensions and the mean over the N nodes.
double rmse_step(const Matrix& truth, const Matrix& estimate);

/// The same against a row-major block of truth's shape, such as
/// CentralStore::values() (z_t, the h = 0 estimate).
double rmse_step(const Matrix& truth, std::span<const double> estimate);

/// Eq. (3) for resource `column` alone, as the per-resource panels report
/// it: rmse_step() of the two N x 1 columns, `estimate` a block as above.
double rmse_step(const Matrix& truth, std::span<const double> estimate,
                 std::size_t column);

/// Time-averaged RMSE of eq. (4): accumulate per-step RMSEs, average the
/// squares, and take the square root at the end.
class RmseAccumulator {
 public:
  void add(double rmse_t) {
    sum_squares_ += rmse_t * rmse_t;
    ++count_;
  }

  std::size_t count() const { return count_; }

  /// RMSE-bar(T, h) over everything added so far; NaN when empty, so that
  /// an average of nothing never reads as a perfect score.
  double value() const;

 private:
  double sum_squares_ = 0.0;
  std::size_t count_ = 0;
};

/// Intermediate RMSE at one step (§VI-C): distance between the *true*
/// measurements and the centroid of the cluster each node belongs to.
/// `truth` is N x d in the clustering's measurement space.
double intermediate_rmse_step(const Matrix& truth,
                              const cluster::Clustering& clustering);

}  // namespace resmon::core
