// Agent: one local node's side of the star topology, over a real socket.
//
// Wraps a TransmitPolicy (normally the §V-A AdaptiveTransmitter): each time
// slot the agent observes its measurement, lets the policy decide, and
// pushes either a measurement frame (policy fired) or a heartbeat frame
// (slot progress for the controller's barrier). The link is an
// UpstreamClient: connection loss triggers bounded
// reconnect-with-exponential-backoff, and the frame of the current slot is
// resent after a successful reconnect so no slot goes missing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "collect/transmit_policy.hpp"
#include "net/upstream.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"

namespace resmon::net {

/// What an AgentOptions::frame_hook decided about one outbound frame.
struct FrameAction {
  /// Close the connection instead of delivering anything this slot (the
  /// agent reconnects lazily on its next delivery). Simulates half-open
  /// stalls and agent-side partitions.
  bool sever = false;
  /// Frames to deliver in order. Empty (with sever = false) silently drops
  /// the slot's frame; several entries duplicate or inject traffic.
  std::vector<std::vector<std::uint8_t>> frames;
};

/// Outbound-frame interception point. Called once per observe() with the
/// slot and the already-encoded frame (measurement or heartbeat). The agent
/// stays generic: resmon::faultnet supplies hooks, but any caller can
/// intercept traffic without the net layer knowing about fault schedules.
using FrameHook = std::function<FrameAction(
    std::size_t step, const std::vector<std::uint8_t>& frame)>;

struct AgentOptions {
  /// Controller address and reconnect policy.
  UpstreamOptions upstream;
  std::uint32_t node = 0;
  std::uint32_t num_resources = 1;

  /// Where operators read the resmon_agent_* series (non-owning), labeled
  /// {node="<id>"}. nullptr = the agent counts into a private registry.
  /// One registry serves one agent per node id: a registry that already
  /// holds this node's resmon_agent_frames_sent_total is rejected.
  obs::MetricsRegistry* metrics = nullptr;

  /// Optional outbound-frame interception (fault injection, tracing).
  /// Empty = frames are delivered unchanged.
  FrameHook frame_hook;
};

class Agent {
 public:
  Agent(const AgentOptions& options,
        std::unique_ptr<collect::TransmitPolicy> policy);

  /// Connect and complete the hello/ack handshake, with bounded retries.
  /// Throws SocketError when the attempts are exhausted or the controller
  /// rejects the hello.
  void connect();

  /// Process time slot `t`: the policy decides on `x`, and the resulting
  /// frame (measurement or heartbeat) is delivered — reconnecting with
  /// backoff if the connection died. Returns beta_{i,t} (whether a
  /// measurement was transmitted).
  bool observe(std::size_t t, std::span<const double> x);

  bool connected() const { return upstream_.connected(); }
  const collect::TransmitPolicy& policy() const { return *policy_; }

  /// Frames and encoded bytes actually written to the controller.
  std::uint64_t frames_sent() const { return m_frames_total_->value(); }
  std::uint64_t bytes_sent() const { return m_bytes_total_->value(); }
  /// Per-slot policy decisions to transmit (beta = 1), whether or not a
  /// fault hook delivered the frame.
  std::uint64_t measurements_sent() const {
    return m_measurements_total_->value();
  }
  /// Successful re-handshakes after a connection loss.
  std::uint64_t reconnects() const { return upstream_.reconnects(); }

 private:
  /// Deliver one encoded frame and count it as sent.
  void deliver(const std::vector<std::uint8_t>& bytes);
  /// Route one encoded frame through the frame_hook (if set), then deliver
  /// whatever the hook returned.
  void dispatch(std::size_t t, std::vector<std::uint8_t> bytes);

  AgentOptions options_;
  std::unique_ptr<collect::TransmitPolicy> policy_;
  obs::RegistryRef registry_;  ///< options_.metrics, else a private one
  UpstreamClient upstream_;
  // Series in registry_, registered by the constructor (never nullptr).
  obs::Counter* m_frames_total_ = nullptr;
  obs::Counter* m_measurements_total_ = nullptr;
  obs::Counter* m_heartbeats_total_ = nullptr;
  obs::Counter* m_bytes_total_ = nullptr;
};

}  // namespace resmon::net
