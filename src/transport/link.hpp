// Link: the uplink abstraction between local nodes and the controller.
//
// A Link carries MeasurementMessages from the fleet to the central node and
// accounts for the traffic it moved. Implementations:
//   - transport::Channel      — reliable in-process in-order queue (the
//                               deterministic simulation default);
//   - net::LoopbackLink       — Channel wrapped in the real wire codec, so
//                               deterministic runs exercise encode/decode;
//   - faultnet::FaultyLink    — wraps any Link and injects the faults of a
//                               FaultSpec (drop, dup, corrupt, delay,
//                               reorder, stall, partition; grammar in
//                               faultnet/fault_spec.hpp) — the uplink's
//                               only fault injector;
//   - real sockets            — net::Agent / net::Controller move the same
//                               frames over TCP (they sit outside this
//                               interface because one controller serves many
//                               connections).
#pragma once

#include <cstdint>
#include <vector>

namespace resmon::transport {

struct MeasurementMessage;

/// Uplink seen from the simulation driver: nodes send, the central node
/// drains once per slot, and the link reports what the fleet paid for.
class Link {
 public:
  virtual ~Link() = default;

  /// Enqueue a message for delivery to the central node.
  virtual void send(MeasurementMessage message) = 0;

  /// Deliver the messages due this slot.
  virtual std::vector<MeasurementMessage> drain() = 0;

  /// Messages accepted but not yet delivered.
  virtual std::size_t pending() const = 0;

  /// Traffic accounting. bytes_sent() counts real encoded frame bytes
  /// (senders pay for dropped messages too); only fault-injecting links
  /// report nonzero messages_dropped().
  virtual std::uint64_t messages_sent() const = 0;
  virtual std::uint64_t bytes_sent() const = 0;
  virtual std::uint64_t messages_dropped() const = 0;
};

}  // namespace resmon::transport
