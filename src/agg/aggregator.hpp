// Aggregator: the intermediate tier of a two-tier collection topology.
//
// One Aggregator fronts a contiguous shard of agents [first_node,
// first_node + num_nodes). Downstream it is simply a Controller — agents
// connect with the unchanged wire protocol, the LIVE -> STALE -> DEAD
// staleness machine runs locally (injectable clock), and the slot barrier
// completes per shard. Upstream it speaks three shard frames to the root:
// a kShardHello announcing its node range, one kSlotSummary per completed
// slot (every measurement the shard's agents transmitted for that slot,
// heartbeats compacted away, plus a 0/1 mark set when the shard's barrier
// skipped a non-LIVE node), and periodic kShardStatus staleness censuses.
//
// Bit-identity invariant (asserted by test_agg and the two_tier_fleet
// scenario): measurements travel through the summary byte-exactly and in
// node order, and the root applies them exactly as it would direct agent
// frames — so a two-tier run's forecasts and RMSE are byte-identical to a
// single-tier run over the same trace.
//
// The upstream link is the same net::UpstreamClient an Agent uses: bounded
// exponential backoff on connect, one transparent reconnect-and-resend per
// delivery, and a *terminal* error when the root explicitly rejects the
// shard hello (retrying an invalid hello cannot succeed).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "net/controller.hpp"
#include "net/socket.hpp"
#include "net/upstream.hpp"
#include "obs/metrics.hpp"

namespace resmon::agg {

/// Contiguous node range of one shard.
struct ShardRange {
  std::size_t first_node = 0;
  std::size_t num_nodes = 0;
};

/// Partition `num_nodes` nodes over `num_shards` contiguous shards: the
/// first (num_nodes % num_shards) shards get one extra node. Every node
/// lands in exactly one shard; shard order is node order.
ShardRange shard_range(std::size_t num_nodes, std::size_t num_shards,
                       std::size_t shard);

struct AggregatorOptions {
  std::size_t shard = 0;          ///< this aggregator's shard id
  std::size_t first_node = 0;     ///< first global node id of the shard
  std::size_t num_nodes = 0;      ///< nodes this shard fronts
  std::size_t num_resources = 0;  ///< d: required hello dimensionality

  /// Root controller address and reconnect policy.
  net::UpstreamOptions upstream;

  /// Downstream staleness policy + clock, handed to the internal
  /// Controller verbatim (see ControllerOptions).
  int stale_after_ms = 0;
  int dead_after_ms = 0;
  std::function<std::chrono::steady_clock::time_point()> staleness_clock;

  /// Send a kShardStatus census after every Nth forwarded slot
  /// (0 = only on explicit send_status calls).
  std::size_t status_every_slots = 8;

  /// Where operators read the resmon_agg_* families, labeled by shard
  /// (nullptr = the aggregator counts into a private registry). A registry
  /// that already holds this shard's resmon_agg_forwarded_slots_total is
  /// rejected.
  obs::MetricsRegistry* metrics = nullptr;
  /// Registry for the internal Controller's resmon_net_* families and the
  /// metrics endpoint (ControllerOptions::metrics). Binaries pass the same
  /// registry as `metrics`; several aggregators in one process need one
  /// each, since one registry serves one controller.
  obs::MetricsRegistry* net_metrics = nullptr;

  /// Optional operator log sink (one line per noteworthy event), shared
  /// with the internal Controller. Empty = silent.
  std::function<void(const std::string&)> log_sink;
};

class Aggregator {
 public:
  /// Takes ownership of the downstream listening socket (agents connect
  /// here) from Socket::listen_tcp.
  Aggregator(net::Socket listener, const AggregatorOptions& options);

  /// Connect-and-handshake upstream with bounded exponential backoff.
  /// Throws net::SocketError if the root stays unreachable past the
  /// attempt budget, or immediately if it rejects the shard hello
  /// (terminal: the rejection reason is named in the message).
  void connect_upstream();

  bool upstream_connected() const { return upstream_.connected(); }

  /// Complete the shard's slot-t barrier (Controller::collect_slot
  /// semantics, including staleness-based degradation) and forward the
  /// compacted summary upstream. Returns false if the barrier timed out —
  /// nothing is sent and the caller may retry after advancing the
  /// staleness clock, exactly like a root-side collect_slot retry loop.
  /// Throws net::SocketError if the upstream link is lost beyond repair.
  bool forward_slot(std::size_t t, int timeout_ms);

  /// Send a kShardStatus census (LIVE/STALE/DEAD counts of owned nodes)
  /// upstream now. forward_slot does this automatically every
  /// status_every_slots slots.
  void send_status();

  /// The shard-local Controller: the port agents connect to, their
  /// handshakes (wait_for_agents), idle pumping, per-node staleness
  /// verdicts and frame totals. Its metrics endpoint (serve_metrics)
  /// renders AggregatorOptions::net_metrics, so binaries that want
  /// resmon_agg_* visible pass one registry as both `metrics` and
  /// `net_metrics`.
  const net::Controller& downstream() const { return downstream_; }
  net::Controller& downstream() { return downstream_; }

  std::uint64_t forwarded_slots() const {
    return m_forwarded_slots_total_->value();
  }
  std::uint64_t forwarded_measurements() const {
    return m_forwarded_measurements_total_->value();
  }
  std::uint64_t forwarded_bytes() const {
    return m_forwarded_bytes_total_->value();
  }
  /// Successful upstream re-handshakes after a connection loss.
  std::uint64_t upstream_reconnects() const {
    return upstream_.reconnects();
  }
  /// Forwarded slots whose shard barrier skipped >= 1 non-LIVE node.
  std::uint64_t degraded_slots_forwarded() const {
    return m_degraded_slots_total_->value();
  }
  /// kShardStatus frames sent upstream.
  std::uint64_t status_frames() const {
    return m_status_frames_total_->value();
  }
  /// Agent frames received downstream per frame sent upstream, as of the
  /// last forward_slot or send_status (0 before the first): the
  /// resmon_agg_compaction_ratio gauge.
  double compaction_ratio() const { return m_compaction_ratio_->value(); }

 private:
  /// Write one encoded frame upstream (see UpstreamClient::deliver) and
  /// count its bytes.
  void forward(const std::vector<std::uint8_t>& bytes);
  /// Owned nodes currently LIVE: the rest are STALE or DEAD.
  std::size_t live_nodes() const {
    return options_.num_nodes - downstream_.stale_nodes() -
           downstream_.dead_nodes();
  }
  /// Refresh the resmon_agg_* gauges that mirror downstream state.
  void update_gauges();
  void log(const std::string& line) const;

  AggregatorOptions options_;
  obs::RegistryRef registry_;  ///< options_.metrics, else a private one
  net::Controller downstream_;
  net::UpstreamClient upstream_;
  /// downstream_.degraded_slots() at the last forward, so each slot's
  /// degraded verdict is the delta (0 or 1) across its collect_slot call.
  std::uint64_t degraded_slots_baseline_ = 0;
  // Series in registry_, registered by the constructor (never nullptr).
  obs::Counter* m_forwarded_slots_total_ = nullptr;
  obs::Counter* m_forwarded_measurements_total_ = nullptr;
  obs::Counter* m_forwarded_bytes_total_ = nullptr;
  obs::Counter* m_degraded_slots_total_ = nullptr;
  obs::Counter* m_status_frames_total_ = nullptr;
  obs::Gauge* m_compaction_ratio_ = nullptr;
  obs::Gauge* m_shard_nodes_ = nullptr;
  obs::Gauge* m_live_nodes_ = nullptr;
  obs::Gauge* m_stale_nodes_ = nullptr;
  obs::Gauge* m_dead_nodes_ = nullptr;
};

}  // namespace resmon::agg
