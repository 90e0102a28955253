// Textbook per-node estimation of §V-C: the oracle that core::modal_offsets
// must match bit for bit. It keeps its own newest-first window of copied
// (clustering, snapshot) pairs and answers one node and one cluster at a
// time, with no kernels, lanes or buckets:
//
//  * modal_cluster: the cluster a node belonged to most often in the
//    window, ties to the smaller index;
//  * offset: s-hat of eq. (12), the window mean of alpha * (snapshot -
//    centroid), newest step first, with alpha from alpha_scale.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "cluster/dynamic_cluster.hpp"
#include "common/error.hpp"
#include "common/matrix.hpp"

namespace resmon::oracle {

/// Largest alpha in [0, 1] such that c_j + alpha * delta is still closest
/// to centroid j among all centroids. For each other centroid c_l the
/// boundary is the perpendicular bisector between c_j and c_l, giving
/// alpha <= ||c_l - c_j||^2 / (2 delta . (c_l - c_j)) whenever delta points
/// toward c_l.
inline double alpha_scale(std::span<const double> delta,
                          const Matrix& centroids, std::size_t j) {
  RESMON_REQUIRE(j < centroids.rows(), "alpha_scale: cluster out of range");
  RESMON_REQUIRE(delta.size() == centroids.cols(),
                 "alpha_scale: dimension mismatch");
  double alpha = 1.0;
  for (std::size_t l = 0; l < centroids.rows(); ++l) {
    if (l == j) continue;
    double dir_dot = 0.0;  // delta . (c_l - c_j)
    double gap2 = 0.0;     // ||c_l - c_j||^2
    for (std::size_t c = 0; c < delta.size(); ++c) {
      const double g = centroids(l, c) - centroids(j, c);
      dir_dot += delta[c] * g;
      gap2 += g * g;
    }
    if (dir_dot > 0.0 && gap2 > 0.0) {
      alpha = std::min(alpha, gap2 / (2.0 * dir_dot));
    }
  }
  return std::clamp(alpha, 0.0, 1.0);
}

class ReferenceOffsets {
 public:
  ReferenceOffsets(std::size_t m_prime, std::size_t k, bool use_alpha)
      : window_size_(m_prime + 1), k_(k), use_alpha_(use_alpha) {}

  void push(const cluster::Clustering& clustering, const Matrix& snapshot) {
    window_.push_front({clustering, snapshot});
    if (window_.size() > window_size_) window_.pop_back();
  }

  std::size_t modal_cluster(std::size_t node) const {
    std::vector<std::size_t> counts(k_, 0);
    for (const Entry& e : window_) ++counts[e.clustering.assignment[node]];
    std::size_t best = 0;
    for (std::size_t j = 1; j < k_; ++j) {
      if (counts[j] > counts[best]) best = j;
    }
    return best;
  }

  std::vector<double> offset(std::size_t node, std::size_t j) const {
    const std::size_t dims = window_.front().snapshot.cols();
    std::vector<double> out(dims, 0.0);
    std::vector<double> delta(dims);
    for (const Entry& e : window_) {
      for (std::size_t c = 0; c < dims; ++c) {
        delta[c] = e.snapshot(node, c) - e.clustering.centroids(j, c);
      }
      const double alpha =
          use_alpha_ ? alpha_scale(delta, e.clustering.centroids, j) : 1.0;
      for (std::size_t c = 0; c < dims; ++c) out[c] += alpha * delta[c];
    }
    for (double& v : out) v /= static_cast<double>(window_.size());
    return out;
  }

 private:
  struct Entry {
    cluster::Clustering clustering;
    Matrix snapshot;
  };
  std::size_t window_size_;
  std::size_t k_;
  bool use_alpha_;
  std::deque<Entry> window_;  // newest first
};

}  // namespace resmon::oracle
