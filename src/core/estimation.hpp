// Per-node spatial estimation pieces of §V-C, shared between the
// MonitoringPipeline and the clustering-baseline experiments:
//
//  * forecasted cluster membership — the cluster a node belonged to most
//    often within the last M'+1 steps;
//  * the per-node offset s-hat of eq. (12), with the alpha scaling that
//    keeps "centroid + offset" inside the node's own cluster: the largest
//    alpha in [0, 1] such that c_j + alpha * delta is still closest to
//    centroid j. Each other centroid c_l bounds it at its perpendicular
//    bisector with c_j, alpha <= ||c_l - c_j||^2 / (2 delta . (c_l - c_j)),
//    whenever delta points toward c_l.
#pragma once

#include <span>
#include <vector>

#include "cluster/dynamic_cluster.hpp"
#include "common/matrix.hpp"

namespace resmon::core {

/// Rolling window of (clustering, stored-snapshot) pairs that answers the
/// two per-node questions above. Push once per time step, newest first.
class OffsetTracker {
 public:
  /// `m_prime` is M' (the paper's look-back, default 5); `k` the number of
  /// clusters. `use_alpha` applies the eq. (12) alpha scaling (disable for
  /// the ablation in bench/ablation_offset).
  OffsetTracker(std::size_t m_prime, std::size_t k, bool use_alpha = true);

  /// Record this step's clustering and the snapshot it was computed from
  /// (snapshot rows must be in the same measurement space as the
  /// clustering's centroids).
  void push(const cluster::Clustering& clustering, const Matrix& snapshot);

  std::size_t steps() const { return ring_size_; }
  bool empty() const { return ring_size_ == 0; }

  /// For every node i, modal[i] is its C-hat membership: the cluster it
  /// belonged to most often over the last min(M'+1, steps()) steps (ties
  /// break to the smaller index). When `offsets` is non-null it is reshaped
  /// to N x dims and row i receives s-hat of eq. (12) relative to modal[i].
  /// One kern::offset_lanes pass over the window; `modal` holds N entries.
  void modal_offsets(std::span<std::size_t> modal, Matrix* offsets) const;

 private:
  struct Entry {
    cluster::Clustering clustering;
    Matrix snapshot;
  };

  /// Entry `age` steps back (0 = most recent). Requires age < steps().
  const Entry& entry(std::size_t age) const {
    return ring_[(ring_head_ + age) % ring_.size()];
  }

  std::size_t m_prime_;
  std::size_t k_;
  bool use_alpha_;
  // Fixed ring of the last M'+1 entries, newest at ring_head_; buffers are
  // recycled in place so push() allocates nothing at steady state.
  std::vector<Entry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
};

}  // namespace resmon::core
