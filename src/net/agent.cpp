#include "net/agent.hpp"

#include <string>

namespace resmon::net {

Agent::Agent(const AgentOptions& options,
             std::unique_ptr<collect::TransmitPolicy> policy)
    : options_(options),
      policy_(std::move(policy)),
      upstream_(options.upstream,
                wire::encode(wire::HelloFrame{
                    .node = options.node,
                    .num_resources = options.num_resources}),
                options.node, "agent " + std::to_string(options.node),
                "controller") {
  RESMON_REQUIRE(policy_ != nullptr, "Agent needs a transmit policy");
  RESMON_REQUIRE(options.num_resources > 0,
                 "Agent needs at least one resource");
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    const obs::Labels labels = {{"node", std::to_string(options_.node)}};
    m_frames_total_ = &reg.counter("resmon_agent_frames_sent_total",
                                   "Frames delivered to the controller",
                                   labels);
    m_measurements_total_ =
        &reg.counter("resmon_agent_measurements_sent_total",
                     "Measurement frames delivered (beta = 1)", labels);
    m_heartbeats_total_ =
        &reg.counter("resmon_agent_heartbeats_sent_total",
                     "Heartbeat frames delivered (silent slots)", labels);
    m_bytes_total_ = &reg.counter("resmon_agent_bytes_sent_total",
                                  "Encoded frame bytes delivered", labels);
    obs::Counter& reconnects =
        reg.counter("resmon_agent_reconnects_total",
                    "Successful re-handshakes after a connection loss",
                    labels);
    upstream_.instrument(
        &reg.gauge("resmon_agent_connected",
                   "1 while the connection is up, else 0", labels),
        &reconnects);
  }
}

void Agent::connect() { upstream_.connect(); }

void Agent::deliver(const std::vector<std::uint8_t>& bytes) {
  upstream_.deliver(bytes);
  ++frames_sent_;
  bytes_sent_ += bytes.size();
  if (m_frames_total_ != nullptr) {
    m_frames_total_->inc();
    m_bytes_total_->inc(bytes.size());
  }
}

void Agent::dispatch(std::size_t t, std::vector<std::uint8_t> bytes) {
  if (!options_.frame_hook) {
    deliver(bytes);
    return;
  }
  const FrameAction action = options_.frame_hook(t, bytes);
  if (action.sever) {
    // Half-open / agent-side partition: the frame is lost and the socket is
    // closed without a FIN exchange; the next surviving frame reconnects.
    upstream_.close();
    return;
  }
  for (const std::vector<std::uint8_t>& frame : action.frames) {
    deliver(frame);
  }
}

bool Agent::observe(std::size_t t, std::span<const double> x) {
  RESMON_REQUIRE(x.size() == options_.num_resources,
                 "Agent::observe: measurement dimension mismatch");
  const bool beta = policy_->decide(t, x);
  if (beta) {
    transport::MeasurementMessage m;
    m.node = options_.node;
    m.step = t;
    m.values.assign(x.begin(), x.end());
    dispatch(t, wire::encode(m));
    ++measurements_sent_;
    if (m_measurements_total_ != nullptr) m_measurements_total_->inc();
  } else {
    dispatch(t, wire::encode(wire::HeartbeatFrame{
                    .node = options_.node,
                    .step = static_cast<std::uint64_t>(t)}));
    if (m_heartbeats_total_ != nullptr) m_heartbeats_total_->inc();
  }
  return beta;
}

}  // namespace resmon::net
