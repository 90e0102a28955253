#include "faultnet/faulty_link.hpp"

#include <utility>

#include "common/error.hpp"
#include "net/wire.hpp"
#include "transport/channel.hpp"

namespace resmon::faultnet {

namespace {

/// Salt for picking which payload byte a corrupt fault flips.
constexpr std::uint64_t kSaltCorruptByte = 0x11;
/// Salt stream for the deterministic batch shuffle.
constexpr std::uint64_t kSaltShuffle = 0x12;

}  // namespace

FaultyLink::FaultyLink(const FaultSpec& spec, obs::MetricsRegistry* metrics)
    : registry_(metrics),
      injector_(spec, registry_.get()),
      crc_rejects_(&registry_->counter(
          "resmon_faultnet_crc_rejects_total",
          "Corrupted frames rejected by the wire decoder's CRC check")) {}

void FaultyLink::send(transport::MeasurementMessage message) {
  const FaultDecision d = injector_.decide(message.node, message.step);
  if (d.partitioned) {
    injector_.count(FaultKind::kPartition);
    ++messages_dropped_;
    return;
  }
  if (d.stalled) {
    injector_.count(FaultKind::kStall);
    // Held until the first drain after the stall window: the connection is
    // half-open, the peer's buffered bytes arrive when it recovers.
    std::size_t release = message.step;
    for (const SlotWindow& w : injector_.spec().stalls) {
      if (w.contains(message.step)) release = std::max(release, w.to + 1);
    }
    held_.push_back({std::move(message), release});
    return;
  }
  if (d.drop) {
    injector_.count(FaultKind::kDrop);
    ++messages_dropped_;
    return;
  }
  if (d.corrupt) {
    injector_.count(FaultKind::kCorrupt);
    corrupt_and_reject(message);
    ++messages_dropped_;
    return;
  }
  if (d.delay_slots > 0) {
    injector_.count(FaultKind::kDelay);
    const std::size_t release = message.step + d.delay_slots;
    held_.push_back({std::move(message), release});
    return;
  }
  if (d.duplicate) {
    injector_.count(FaultKind::kDuplicate);
    ready_.push_back(message);
  }
  ready_.push_back(std::move(message));
}

std::vector<transport::MeasurementMessage> FaultyLink::drain() {
  // drain() is the slot clock: the driver drains exactly once per step,
  // so drain index == current slot.
  const std::size_t now = drain_count_++;
  for (std::size_t i = 0; i < held_.size();) {
    if (held_[i].release_at <= now) {
      ready_.push_back(std::move(held_[i].message));
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  std::vector<transport::MeasurementMessage> batch =
      std::exchange(ready_, {});
  if (batch.size() > 1 && injector_.reorder_batch(0, now)) {
    injector_.count(FaultKind::kReorder);
    // Deterministic Fisher-Yates keyed on (batch index, position). Safe for
    // pipeline output: the store keeps at most one freshest sample per node,
    // and within one drain a node contributes distinct steps at most once
    // apart from duplicates — which the store dedups regardless of order.
    for (std::size_t i = batch.size() - 1; i > 0; --i) {
      const std::size_t j = injector_.pick(i, now, kSaltShuffle, i + 1);
      std::swap(batch[i], batch[j]);
    }
  }
  return batch;
}

void FaultyLink::corrupt_and_reject(
    const transport::MeasurementMessage& message) {
  std::vector<std::uint8_t> frame = net::wire::encode(message);
  RESMON_REQUIRE(frame.size() > net::wire::kHeaderSize,
                 "measurement frame must carry a payload");
  // Flip one payload byte (never the header) so the header still parses and
  // the receiver reaches — and fails — the CRC check, the exact path a
  // corrupted TCP stream takes in the controller.
  const std::size_t payload_len = frame.size() - net::wire::kHeaderSize;
  const std::size_t offset =
      net::wire::kHeaderSize +
      injector_.pick(message.node, message.step, kSaltCorruptByte,
                     payload_len);
  frame[offset] ^= 0xFF;
  net::wire::FrameDecoder decoder;
  decoder.feed(frame);
  RESMON_REQUIRE(decoder.error() == net::wire::WireError::kCrcMismatch,
                 "corrupted payload must fail the CRC check");
  crc_rejects_->inc();
}

}  // namespace resmon::faultnet
