// SocketFleet: one in-process loopback fleet over real TCP, agents ->
// root (one tier) or agents -> aggregators -> root (two tiers).
//
// The scenario runner's socket mode, bench/scaling_tiers and the socket
// tests all build this same fleet: a root net::Controller, `shards`
// agg::Aggregators in front of it when there are two tiers, and one
// net::Agent per node, every handshake completed before the constructor
// returns (net::connect_pumping). The caller drives it in lock-step from
// one thread: observe(t) has every live agent write its slot-t frame, then
// collect(t) completes the slot at the top tier and returns its messages.
//
// With a staleness policy (stale_after_slots > 0) the controller that owns
// per-node silence — the root in one tier, each aggregator in two — runs
// on a ManualClock. collect(t) ages it one slot per call and one more per
// timed-out barrier attempt, so LIVE -> STALE -> DEAD churn replays
// identically on any machine. Without a policy the barrier simply waits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "agg/aggregator.hpp"
#include "collect/transmit_policy.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "obs/metrics.hpp"
#include "scenario/manual_clock.hpp"
#include "trace/trace.hpp"

namespace resmon::scenario {

struct SocketFleetOptions {
  /// Aggregators between the agents and the root; 0 = one tier.
  std::size_t shards = 0;
  /// One transmission policy per agent (collect::make_policy_factory).
  std::function<std::unique_ptr<collect::TransmitPolicy>()> policy;
  /// Slots of silence before a node turns STALE (0 = no staleness policy:
  /// the barrier waits for every node) and DEAD (0 = never).
  std::size_t stale_after_slots = 0;
  std::size_t dead_after_slots = 0;
  /// Registry for the root's resmon_net_* and the aggregators' shard-labeled
  /// resmon_agg_* series (nullptr = private ones). Each aggregator's
  /// internal controller always counts into a private registry: its
  /// per-node series would collide with the root's otherwise.
  obs::MetricsRegistry* metrics = nullptr;
};

class SocketFleet {
 public:
  /// Manual-clock milliseconds per slot. A threshold of n slots sits at
  /// n * kMsPerSlot + kMsPerSlot / 2.
  static constexpr int kMsPerSlot = 100;

  /// Build the tiers and connect one agent per node. Throws resmon::Error
  /// when a handshake fails.
  SocketFleet(std::size_t num_nodes, std::size_t num_resources,
              const SocketFleetOptions& options);
  /// Not movable: the controllers' staleness clocks point at clock_.
  SocketFleet(const SocketFleet&) = delete;
  SocketFleet& operator=(const SocketFleet&) = delete;

  /// Every live agent writes its slot-t frame (measurement or heartbeat).
  void observe(std::size_t t, const trace::Trace& trace);

  /// Complete slot t at the top tier (every shard forward, then the root's
  /// barrier) and return its measurements in node order. Throws
  /// resmon::Error when the barrier stays stuck past the staleness policy.
  std::vector<transport::MeasurementMessage> collect(std::size_t t);

  /// Churn: destroy `node`'s agent (its traffic totals are kept), or
  /// connect a fresh one to the node's collector, which must see it LIVE.
  void kill(std::size_t node);
  void restart(std::size_t node);

  /// Bytes and measurements every agent sent, killed ones included.
  std::uint64_t bytes_sent() const;
  std::uint64_t measurements_sent() const;

  net::Controller& root() { return *root_; }
  agg::Aggregator& aggregator(std::size_t shard) { return *aggs_.at(shard); }

 private:
  /// The controller a node's agent speaks to: its shard's downstream side
  /// in two tiers, the root otherwise.
  net::Controller& downstream_of(std::size_t node);
  std::unique_ptr<net::Agent> make_agent(std::size_t node);

  SocketFleetOptions options_;
  std::size_t num_resources_;
  ManualClock clock_;
  std::unique_ptr<net::Controller> root_;
  std::vector<std::unique_ptr<agg::Aggregator>> aggs_;
  std::vector<std::size_t> owner_;  ///< node -> shard (two tiers)
  std::vector<std::unique_ptr<net::Agent>> agents_;  ///< nullptr = killed
  std::uint64_t retired_bytes_ = 0;
  std::uint64_t retired_measurements_ = 0;
};

}  // namespace resmon::scenario
