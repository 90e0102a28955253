#include "transport/channel.hpp"

#include <algorithm>

namespace resmon::transport {

CentralStore::CentralStore(std::size_t num_nodes, std::size_t num_resources)
    : num_nodes_(num_nodes),
      num_resources_(num_resources),
      values_(num_nodes * num_resources, 0.0),
      last_step_(num_nodes, -1) {
  RESMON_REQUIRE(num_nodes > 0, "CentralStore needs at least one node");
  RESMON_REQUIRE(num_resources > 0,
                 "CentralStore needs at least one resource");
}

void CentralStore::apply(const MeasurementMessage& message) {
  RESMON_REQUIRE(message.node < num_nodes_,
                 "CentralStore: node index out of range");
  RESMON_REQUIRE(message.values.size() == num_resources_,
                 "CentralStore: measurement dimension mismatch");
  if (static_cast<long long>(message.step) <= last_step_[message.node] &&
      has(message.node)) {
    return;  // out-of-order duplicate; keep the fresher measurement
  }
  const bool had = has(message.node);
  std::copy(message.values.begin(), message.values.end(),
            values_.begin() +
                static_cast<std::ptrdiff_t>(message.node * num_resources_));
  last_step_[message.node] = static_cast<long long>(message.step);
  if (!had && has(message.node)) ++heard_;  // a stored node never loses has()
}

std::span<const double> CentralStore::values() const {
  if (!complete()) {
    throw InvalidState("CentralStore: values() before every node reported");
  }
  return values_;
}

std::span<const double> CentralStore::stored(std::size_t node) const {
  RESMON_REQUIRE(node < num_nodes_, "CentralStore: node index out of range");
  if (!has(node)) {
    throw InvalidState("CentralStore: no measurement received from node " +
                       std::to_string(node));
  }
  return std::span<const double>(values_).subspan(node * num_resources_,
                                                  num_resources_);
}

std::size_t CentralStore::last_update_step(std::size_t node) const {
  RESMON_REQUIRE(node < num_nodes_, "CentralStore: node index out of range");
  if (!has(node)) {
    throw InvalidState("CentralStore: no measurement received from node " +
                       std::to_string(node));
  }
  return static_cast<std::size_t>(last_step_[node]);
}

std::size_t CentralStore::staleness(std::size_t node,
                                    std::size_t current_step) const {
  const std::size_t last = last_update_step(node);
  RESMON_REQUIRE(current_step >= last,
                 "CentralStore: staleness query before last update");
  return current_step - last;
}

}  // namespace resmon::transport
