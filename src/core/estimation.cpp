#include "core/estimation.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/kernels.hpp"

namespace resmon::core {

void modal_offsets(const cluster::ClusterHistory& history,
                   std::size_t window, bool use_alpha,
                   std::span<std::size_t> modal, Matrix* offsets) {
  if (history.empty()) {
    throw InvalidState("modal_offsets: no steps recorded");
  }
  RESMON_REQUIRE(window >= 1 && window <= history.depth(),
                 "modal_offsets: window must be in [1, history depth]");
  const Matrix& newest = history.at(0).values;
  const std::size_t k = history.at(0).clustering.centroids.rows();
  RESMON_REQUIRE(k >= 1, "modal_offsets: needs at least one cluster");
  RESMON_REQUIRE(modal.size() == newest.rows(),
                 "modal_offsets: one modal cluster per node");
  const std::size_t steps = std::min(window, history.size());
  std::vector<kern::OffsetEntry> ring(steps);
  for (std::size_t age = 0; age < steps; ++age) {
    const cluster::HistoryStep& step = history.at(age);
    ring[age] = {step.clustering.assignment.data(), step.values.data().data(),
                 step.clustering.centroids.data().data()};
  }
  if (offsets != nullptr) offsets->resize(newest.rows(), newest.cols());
  kern::offset_lanes(ring.data(), steps, newest.rows(), newest.cols(), k,
                     use_alpha, modal.data(),
                     offsets != nullptr ? offsets->data().data() : nullptr);
}

}  // namespace resmon::core
