// FaultyLink: the in-process uplink's fault stage.
//
// sim::Driver sends each slot's messages through it and drains it once per
// slot; it applies a FaultSpec's schedule on the way through:
//
//   drop        message vanishes (sender still pays bandwidth)
//   duplicate   message is enqueued twice (receiver dedups by step)
//   corrupt     message is encoded, one payload byte is flipped, and the
//               mutilated frame is pushed through a real FrameDecoder —
//               which must CRC-reject it; the reject is counted and the
//               message is lost, exactly like the TCP path
//   delay       message surfaces `k` drains late
//   stall       messages inside the window are held and flushed after it
//   partition   messages inside the window are lost
//   reorder     a delivered batch is deterministically shuffled
//
// drain() is the slot clock (the driver drains once per step). This is the
// uplink's only fault injector; without it the slot's messages go straight
// to the central store. All decisions come from the order-independent
// FaultInjector, so a seeded spec yields one exact fault realization per
// run. The spec grammar is documented in faultnet/fault_spec.hpp.
#pragma once

#include <deque>
#include <vector>

#include "faultnet/injector.hpp"
#include "obs/metrics.hpp"
#include "transport/channel.hpp"

namespace resmon::faultnet {

class FaultyLink {
 public:
  /// `metrics` (non-owning, may be nullptr) receives
  /// resmon_faultnet_injected_total{fault=...} and
  /// resmon_faultnet_crc_rejects_total.
  explicit FaultyLink(const FaultSpec& spec,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Apply the schedule to one message: lose it, hold it, or queue it (once
  /// or twice) for the next drain().
  void send(transport::MeasurementMessage message);
  /// Deliver the messages due this slot, in send order unless reordered.
  std::vector<transport::MeasurementMessage> drain();

  /// Messages accepted but not yet delivered.
  std::size_t pending() const { return ready_.size() + held_.size(); }
  /// Messages lost to injected faults (drop/corrupt/partition).
  std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// Corrupted frames rejected by the wire decoder's CRC check.
  std::uint64_t crc_rejects() const { return crc_rejects_; }

 private:
  struct Held {
    transport::MeasurementMessage message;
    std::size_t release_at = 0;  ///< drain index at which it surfaces
  };

  /// Encode, flip one payload byte, and require the decoder to reject it.
  void corrupt_and_reject(const transport::MeasurementMessage& message);

  FaultInjector injector_;
  std::vector<transport::MeasurementMessage> ready_;  ///< due next drain()
  std::deque<Held> held_;
  std::size_t drain_count_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t crc_rejects_ = 0;
  obs::Counter* m_crc_rejects_ = nullptr;
};

}  // namespace resmon::faultnet
