#include "net/agent.hpp"

#include <string>

namespace resmon::net {

namespace {

obs::Labels node_labels(const AgentOptions& options) {
  return {{"node", std::to_string(options.node)}};
}

}  // namespace

Agent::Agent(const AgentOptions& options,
             std::unique_ptr<collect::TransmitPolicy> policy)
    : options_(options),
      policy_(std::move(policy)),
      registry_(options.metrics, "resmon_agent_frames_sent_total",
                node_labels(options)),
      upstream_(options.upstream,
                wire::encode(wire::HelloFrame{
                    .node = options.node,
                    .num_resources = options.num_resources}),
                options.node, "agent " + std::to_string(options.node),
                "controller",
                registry_->gauge("resmon_agent_connected",
                                 "1 while the connection is up, else 0",
                                 node_labels(options)),
                registry_->counter(
                    "resmon_agent_reconnects_total",
                    "Successful re-handshakes after a connection loss",
                    node_labels(options))) {
  RESMON_REQUIRE(policy_ != nullptr, "Agent needs a transmit policy");
  RESMON_REQUIRE(options.num_resources > 0,
                 "Agent needs at least one resource");
  obs::MetricsRegistry& reg = *registry_;
  const obs::Labels labels = node_labels(options_);
  m_frames_total_ = &reg.counter("resmon_agent_frames_sent_total",
                                 "Frames delivered to the controller", labels);
  m_measurements_total_ =
      &reg.counter("resmon_agent_measurements_sent_total",
                   "Measurement frames delivered (beta = 1)", labels);
  m_heartbeats_total_ =
      &reg.counter("resmon_agent_heartbeats_sent_total",
                   "Heartbeat frames delivered (silent slots)", labels);
  m_bytes_total_ = &reg.counter("resmon_agent_bytes_sent_total",
                                "Encoded frame bytes delivered", labels);
}

void Agent::connect() { upstream_.connect(); }

void Agent::deliver(const std::vector<std::uint8_t>& bytes) {
  upstream_.deliver(bytes);
  m_frames_total_->inc();
  m_bytes_total_->inc(bytes.size());
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
    m.values.assign(x);
    dispatch(t, wire::encode(m));
    m_measurements_total_->inc();
  } else {
    dispatch(t, wire::encode(wire::HeartbeatFrame{
                    .node = options_.node,
                    .step = static_cast<std::uint64_t>(t)}));
    m_heartbeats_total_->inc();
  }
  return beta;
}

}  // namespace resmon::net
