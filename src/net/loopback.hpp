// LoopbackLink: the in-process uplink routed through the real wire codec.
//
// Every message is encoded to wire bytes, fed through an incremental
// FrameDecoder and only the decoded copy is delivered — so deterministic
// tests and benches exercise the exact encode/decode path the TCP runtime
// uses, and bandwidth accounting counts real frame bytes. Because encode ->
// decode is an identity, a LoopbackLink behaves bit-identically to a bare
// transport::Channel. Faults are injected by wrapping it in a
// faultnet::FaultyLink.
#pragma once

#include "net/wire.hpp"
#include "transport/channel.hpp"
#include "transport/link.hpp"

namespace resmon::net {

class LoopbackLink final : public transport::Link {
 public:
  /// Encode, decode, then enqueue the decoded message on the channel.
  /// Throws InvalidState if the codec ever fails to round-trip (that is a
  /// bug, not an input condition: this link sees only locally built
  /// messages).
  void send(transport::MeasurementMessage message) override;

  std::vector<transport::MeasurementMessage> drain() override {
    return channel_.drain();
  }

  std::size_t pending() const override { return channel_.pending(); }
  std::uint64_t messages_sent() const override {
    return channel_.messages_sent();
  }
  std::uint64_t bytes_sent() const override { return channel_.bytes_sent(); }
  std::uint64_t messages_dropped() const override {
    return channel_.messages_dropped();
  }

 private:
  transport::Channel channel_;
  wire::FrameDecoder decoder_;
};

}  // namespace resmon::net
