#include "scenario/socket_fleet.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "net/socket.hpp"

namespace resmon::scenario {

namespace {

/// Barrier timeout without a staleness policy: only a broken fleet waits
/// this long.
constexpr int kWaitMs = 30000;
/// Barrier attempt with a staleness policy: a timed-out attempt ages the
/// clock one slot and retries.
constexpr int kAttemptMs = 200;

}  // namespace

SocketFleet::SocketFleet(std::size_t num_nodes, std::size_t num_resources,
                         const SocketFleetOptions& options)
    : options_(options), num_resources_(num_resources) {
  RESMON_REQUIRE(options_.shards <= num_nodes,
                 "scenario: more shards than nodes in [topology]");
  const bool aging = options_.stale_after_slots > 0;
  // The half-slot offset keeps thresholds off exact slot multiples: a live
  // node's silence peaks at whole slots, so it can never tie the limit.
  const auto after_ms = [](std::size_t slots) {
    RESMON_REQUIRE(slots < std::numeric_limits<int>::max() / kMsPerSlot,
                   "scenario: staleness threshold overflows int "
                   "milliseconds");
    return slots == 0 ? 0
                      : static_cast<int>(slots) * kMsPerSlot + kMsPerSlot / 2;
  };

  net::ControllerOptions copt;
  copt.num_nodes = num_nodes;
  copt.num_resources = num_resources;
  copt.metrics = options_.metrics;
  // In two tiers the shards own per-node staleness; the root's
  // degraded-slot accounting comes from the summaries' degraded counts.
  copt.num_shards = options_.shards;
  if (aging && options_.shards == 0) {
    copt.stale_after_ms = after_ms(options_.stale_after_slots);
    copt.dead_after_ms = after_ms(options_.dead_after_slots);
    copt.staleness_clock = clock_.now_fn();
  }
  root_ = std::make_unique<net::Controller>(
      net::Socket::listen_tcp("127.0.0.1", 0), copt);

  owner_.assign(num_nodes, 0);
  std::vector<std::function<void()>> hellos;
  for (std::size_t shard = 0; shard < options_.shards; ++shard) {
    const agg::ShardRange range =
        agg::shard_range(num_nodes, options_.shards, shard);
    agg::AggregatorOptions aopt;
    aopt.shard = shard;
    aopt.first_node = range.first_node;
    aopt.num_nodes = range.num_nodes;
    aopt.num_resources = num_resources;
    aopt.upstream.port = root_->port();
    if (aging) {
      aopt.stale_after_ms = after_ms(options_.stale_after_slots);
      aopt.dead_after_ms = after_ms(options_.dead_after_slots);
      aopt.staleness_clock = clock_.now_fn();
    }
    aopt.metrics = options_.metrics;  // resmon_agg_* series are shard-labeled
    aggs_.push_back(std::make_unique<agg::Aggregator>(
        net::Socket::listen_tcp("127.0.0.1", 0), aopt));
    for (std::size_t node = range.first_node;
         node < range.first_node + range.num_nodes; ++node) {
      owner_[node] = shard;
    }
    hellos.emplace_back(
        [aggregator = aggs_.back().get()] { aggregator->connect_upstream(); });
  }
  net::connect_pumping(*root_, hellos);

  // Each collector acks its own agents' hellos, so a shard's agents
  // connect while that shard pumps.
  agents_.resize(num_nodes);
  std::vector<std::vector<std::function<void()>>> connects(
      std::max<std::size_t>(options_.shards, 1));
  for (std::size_t node = 0; node < num_nodes; ++node) {
    agents_[node] = make_agent(node);
    connects[owner_[node]].emplace_back(
        [agent = agents_[node].get()] { agent->connect(); });
  }
  for (std::size_t s = 0; s < connects.size(); ++s) {
    net::connect_pumping(aggs_.empty() ? *root_ : aggs_[s]->downstream(),
                         connects[s]);
  }
}

net::Controller& SocketFleet::downstream_of(std::size_t node) {
  return aggs_.empty() ? *root_ : aggs_[owner_[node]]->downstream();
}

std::unique_ptr<net::Agent> SocketFleet::make_agent(std::size_t node) {
  net::AgentOptions opt;
  opt.upstream.port = downstream_of(node).port();
  opt.node = static_cast<std::uint32_t>(node);
  opt.num_resources = static_cast<std::uint32_t>(num_resources_);
  return std::make_unique<net::Agent>(opt, options_.policy());
}

void SocketFleet::observe(std::size_t t, const trace::Trace& trace) {
  for (std::size_t node = 0; node < agents_.size(); ++node) {
    if (agents_[node] != nullptr) {
      agents_[node]->observe(t, trace.measurement(node, t));
    }
  }
}

std::vector<transport::MeasurementMessage> SocketFleet::collect(
    std::size_t t) {
  clock_.advance_ms(kMsPerSlot);
  // The barriers wait for LIVE nodes only: while a freshly killed node is
  // still LIVE a barrier cannot complete, so each timed-out attempt ages
  // the clock one slot until the staleness machine degrades the node.
  const bool aging = options_.stale_after_slots > 0;
  const std::size_t attempts = aging ? options_.stale_after_slots + 8 : 1;
  const int timeout_ms = aging ? kAttemptMs : kWaitMs;
  for (auto& aggregator : aggs_) {
    bool forwarded = false;
    for (std::size_t attempt = 0; attempt < attempts && !forwarded;
         ++attempt) {
      forwarded = aggregator->forward_slot(t, timeout_ms);
      if (!forwarded) clock_.advance_ms(kMsPerSlot);
    }
    RESMON_REQUIRE(forwarded,
                   "scenario: shard barrier stuck past the staleness policy");
  }
  // The root of two tiers consumes one summary per shard and runs no
  // staleness machine of its own.
  const bool root_ages = aging && aggs_.empty();
  std::optional<std::vector<transport::MeasurementMessage>> messages;
  for (std::size_t attempt = 0; attempt < (root_ages ? attempts : 1);
       ++attempt) {
    messages = root_->collect_slot(t, root_ages ? kAttemptMs : kWaitMs);
    if (messages.has_value()) break;
    clock_.advance_ms(kMsPerSlot);
  }
  RESMON_REQUIRE(messages.has_value(),
                 "scenario: slot barrier stuck past the staleness policy");
  return std::move(*messages);
}

void SocketFleet::kill(std::size_t node) {
  RESMON_REQUIRE(node < agents_.size(), "scenario: churn node out of range");
  RESMON_REQUIRE(agents_[node] != nullptr,
                 "scenario: kill of an already-dead node");
  retired_bytes_ += agents_[node]->bytes_sent();
  retired_measurements_ += agents_[node]->measurements_sent();
  agents_[node].reset();
}

void SocketFleet::restart(std::size_t node) {
  RESMON_REQUIRE(node < agents_.size(), "scenario: churn node out of range");
  RESMON_REQUIRE(agents_[node] == nullptr,
                 "scenario: restart of a live node");
  agents_[node] = make_agent(node);
  net::Agent& agent = *agents_[node];
  net::Controller& collector = downstream_of(node);
  net::connect_pumping(collector, [&agent] { agent.connect(); });
  RESMON_REQUIRE(collector.node_state(node) == net::NodeState::kLive,
                 "scenario: node did not rejoin after restart");
}

std::uint64_t SocketFleet::bytes_sent() const {
  std::uint64_t total = retired_bytes_;
  for (const auto& agent : agents_) {
    if (agent != nullptr) total += agent->bytes_sent();
  }
  return total;
}

std::uint64_t SocketFleet::measurements_sent() const {
  std::uint64_t total = retired_measurements_;
  for (const auto& agent : agents_) {
    if (agent != nullptr) total += agent->measurements_sent();
  }
  return total;
}

}  // namespace resmon::scenario
