// The two ends of the uplink between local nodes and the central node.
//
// The paper's system is a star topology: every machine may push its latest
// measurement to the controller each slot. MeasurementMessage is what one
// push carries, and CentralStore is the controller's z_t that the pushes
// update. The hop between them is a span of messages per slot, from the
// in-process collect::FleetCollector (optionally through a
// faultnet::FaultyLink) or from the TCP runtime in net.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "transport/wire_format.hpp"

namespace resmon::transport {

/// One uplink message: node i's measurement x_{i,t}.
struct MeasurementMessage {
  std::size_t node = 0;
  std::size_t step = 0;
  std::vector<double> values;

  /// Serialized size used for bandwidth accounting: the exact byte count of
  /// this message as one wire-protocol frame (header + payload; layout in
  /// transport/wire_format.hpp). net::wire::encode() produces exactly this many
  /// bytes, so simulated and real transports report identical bandwidth.
  std::size_t wire_size() const {
    return net::wire::measurement_frame_size(values.size());
  }

  bool operator==(const MeasurementMessage&) const = default;
};

/// The central node's view of the system: z_t of §IV — the most recent
/// measurement received from each node, with its age.
class CentralStore {
 public:
  CentralStore(std::size_t num_nodes, std::size_t num_resources);

  /// Record a received measurement. Messages may arrive out of order after
  /// delays; stale messages (older than what is stored) are ignored.
  void apply(const MeasurementMessage& message);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_resources() const { return num_resources_; }

  /// True once at least one measurement has been received from `node`.
  bool has(std::size_t node) const { return last_step_[node] >= 0; }

  /// True once every node has reported at least once.
  bool complete() const { return heard_ == num_nodes_; }

  /// z_{i,t}: the stored measurement for `node`. Requires has(node).
  std::span<const double> stored(std::size_t node) const;

  /// z_t of every node, one row-major num_nodes() x num_resources() block:
  /// row i is stored(i). Requires complete().
  std::span<const double> values() const;

  /// Time step of the stored measurement. Requires has(node).
  std::size_t last_update_step(std::size_t node) const;

  /// Age of the stored measurement at `current_step` (p in §IV).
  std::size_t staleness(std::size_t node, std::size_t current_step) const;

 private:
  std::size_t num_nodes_;
  std::size_t num_resources_;
  std::vector<double> values_;         // row i = node i's measurement
  std::vector<long long> last_step_;  // -1 = nothing received yet
  std::size_t heard_ = 0;             // nodes with has(node)
};

}  // namespace resmon::transport
