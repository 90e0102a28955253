// FaultyLink: fault-injecting wrapper around any transport::Link.
//
// Composes over the uplink the pipeline already uses (normally a
// net::LoopbackLink, so the real wire codec still runs underneath) and
// applies a FaultSpec's schedule on the way through:
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
// drain() is the slot clock (the pipeline drains once per step). This is the
// uplink's only fault injector: transport::Channel and net::LoopbackLink are
// reliable in-order queues. All decisions come from the order-independent
// FaultInjector, so a seeded spec yields one exact fault realization per
// run. The spec grammar is documented in faultnet/fault_spec.hpp.
#pragma once

#include <deque>
#include <memory>

#include "faultnet/injector.hpp"
#include "obs/metrics.hpp"
#include "transport/channel.hpp"
#include "transport/link.hpp"

namespace resmon::faultnet {

class FaultyLink final : public transport::Link {
 public:
  /// Wraps `inner` (owned). `metrics` (non-owning, may be nullptr) receives
  /// resmon_faultnet_injected_total{fault=...} and
  /// resmon_faultnet_crc_rejects_total.
  FaultyLink(const FaultSpec& spec, std::unique_ptr<transport::Link> inner,
             obs::MetricsRegistry* metrics = nullptr);

  void send(transport::MeasurementMessage message) override;
  std::vector<transport::MeasurementMessage> drain() override;

  std::size_t pending() const override {
    return inner_->pending() + held_.size();
  }
  /// Sender-side accounting: every send() counts (faulted sends included —
  /// the sender paid for the transmission).
  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  /// Messages lost to injected faults (drop/corrupt/partition) plus the
  /// inner link's own count — 0 for the plain links, nonzero when `inner`
  /// is itself a FaultyLink.
  std::uint64_t messages_dropped() const override {
    return faulted_drops_ + inner_->messages_dropped();
  }

  const FaultInjector& injector() const { return injector_; }
  const transport::Link& inner() const { return *inner_; }
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
  std::unique_ptr<transport::Link> inner_;
  std::deque<Held> held_;
  std::size_t drain_count_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t faulted_drops_ = 0;
  std::uint64_t crc_rejects_ = 0;
  obs::Counter* m_crc_rejects_ = nullptr;
};

}  // namespace resmon::faultnet
