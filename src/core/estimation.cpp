#include "core/estimation.hpp"

#include "common/error.hpp"
#include "common/kernels.hpp"

namespace resmon::core {

OffsetTracker::OffsetTracker(std::size_t m_prime, std::size_t k,
                             bool use_alpha)
    : m_prime_(m_prime), k_(k), use_alpha_(use_alpha), ring_(m_prime + 1) {
  RESMON_REQUIRE(k >= 1, "OffsetTracker needs at least one cluster");
}

void OffsetTracker::push(const cluster::Clustering& clustering,
                         const Matrix& snapshot) {
  RESMON_REQUIRE(clustering.centroids.rows() == k_,
                 "OffsetTracker: cluster count mismatch");
  RESMON_REQUIRE(snapshot.rows() == clustering.assignment.size(),
                 "OffsetTracker: snapshot/assignment size mismatch");
  RESMON_REQUIRE(snapshot.cols() == clustering.centroids.cols(),
                 "OffsetTracker: snapshot/centroid dimension mismatch");
  if (ring_size_ > 0) {
    RESMON_REQUIRE(snapshot.rows() == entry(0).snapshot.rows(),
                   "OffsetTracker: node count changed between steps");
  }
  for (const std::size_t j : clustering.assignment) {
    RESMON_REQUIRE(j < k_, "OffsetTracker: cluster out of range");
  }
  // Rotate the ring backward and copy-assign into the evicted slot, so the
  // entry's vectors/matrices recycle their capacity (no steady-state
  // allocations).
  const std::size_t cap = ring_.size();
  ring_head_ = (ring_head_ + cap - 1) % cap;
  if (ring_size_ < cap) ++ring_size_;
  Entry& slot = ring_[ring_head_];
  slot.clustering.assignment = clustering.assignment;
  slot.clustering.centroids = clustering.centroids;
  slot.snapshot = snapshot;
}

void OffsetTracker::modal_offsets(std::span<std::size_t> modal,
                                  Matrix* offsets) const {
  if (ring_size_ == 0) {
    throw InvalidState("OffsetTracker: no steps recorded");
  }
  const Matrix& newest = entry(0).snapshot;
  RESMON_REQUIRE(modal.size() == newest.rows(),
                 "OffsetTracker: one modal cluster per node");
  std::vector<kern::OffsetEntry> ring(ring_size_);
  for (std::size_t age = 0; age < ring_size_; ++age) {
    const Entry& e = entry(age);
    ring[age] = {e.clustering.assignment.data(), e.snapshot.data().data(),
                 e.clustering.centroids.data().data()};
  }
  if (offsets != nullptr) offsets->resize(newest.rows(), newest.cols());
  kern::offset_lanes(ring.data(), ring_size_, newest.rows(), newest.cols(),
                     k_, use_alpha_, modal.data(),
                     offsets != nullptr ? offsets->data().data() : nullptr);
}

}  // namespace resmon::core
