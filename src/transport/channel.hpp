// In-process transport between local nodes and the central controller.
//
// The paper's system is a star topology: every machine may push its latest
// measurement to the controller each slot. Channel simulates that link and
// accounts for messages/bytes so experiments can report the communication
// cost a transmission policy actually incurs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "transport/wire_format.hpp"
#include "transport/link.hpp"

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

/// In-process, in-order message queue with traffic accounting. Faults
/// (drop, delay, ...) are layered on top by faultnet::FaultyLink; see the
/// FaultSpec grammar in faultnet/fault_spec.hpp.
class Channel final : public Link {
 public:
  /// Enqueue a message for delivery to the central node.
  void send(MeasurementMessage message) override;

  /// Deliver every queued message, in send order (the central node drains
  /// the channel once per time slot).
  std::vector<MeasurementMessage> drain() override;

  std::size_t pending() const override { return queue_.size(); }
  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  /// A plain queue never loses a message.
  std::uint64_t messages_dropped() const override { return 0; }

 private:
  std::vector<MeasurementMessage> queue_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
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
  bool complete() const;

  /// z_{i,t}: the stored measurement for `node`. Requires has(node).
  const std::vector<double>& stored(std::size_t node) const;

  /// Time step of the stored measurement. Requires has(node).
  std::size_t last_update_step(std::size_t node) const;

  /// Age of the stored measurement at `current_step` (p in §IV).
  std::size_t staleness(std::size_t node, std::size_t current_step) const;

  /// Scalar view: stored value of one resource for every node (the
  /// clustering input when clustering per-resource scalars).
  std::vector<double> resource_snapshot(std::size_t resource) const;

 private:
  std::size_t num_nodes_;
  std::size_t num_resources_;
  std::vector<std::vector<double>> values_;
  std::vector<long long> last_step_;  // -1 = nothing received yet
};

}  // namespace resmon::transport
