// Controller: the central node's socket server.
//
// A poll(2) event loop accepts many agent connections, reads whatever bytes
// are available, runs them through each connection's incremental
// FrameDecoder, and buffers decoded measurements per node. The slot
// protocol matches the paper's synchronous model (§IV): every agent sends
// exactly one frame per time slot — a measurement when its §V-A policy
// fires, otherwise a heartbeat — so the controller knows slot t is complete
// once every node's progress reaches t, without any reverse channel.
// collect_slot() surfaces the slot-t measurements in node order; the caller
// applies them to a CentralStore / MonitoringPipeline once per slot.
//
// Protocol violations (bad magic, CRC mismatch, wrong dimensionality, node
// id out of range, ...) drop only the offending connection; an agent may
// reconnect and resume with a fresh hello. A hello for a node that already
// has a live connection wins (newest-wins): the old socket is presumed
// half-open — the controller may simply not have seen the death yet — and
// is dropped in favor of the new one, so reconnection is never locked out.
//
// Graceful degradation: with a stale_after/dead_after policy configured,
// a node that stops reporting is marked STALE after stale_after_ms of
// silence — the slot barrier stops waiting for it, so the pipeline keeps
// producing output from the node's last stored sample (sample-and-hold is
// the CentralStore's natural behavior) — and DEAD after dead_after_ms,
// which also evicts its connection. Any frame from the node, including a
// fresh hello, rejoins it to LIVE immediately. LIVE -> STALE -> DEAD and
// back is fully observable via resmon_net_node_state and the transition
// counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/poller.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "transport/channel.hpp"

namespace resmon::net {

/// Inbound-frame gate: return true to discard the frame of (node, step)
/// before it reaches the controller's state, as if the network ate it.
/// resmon::faultnet builds these from a FaultSpec's partition windows; the
/// controller itself knows nothing about fault schedules.
using BlockHook = std::function<bool(std::uint32_t node, std::uint64_t step)>;

/// Liveness verdict of the staleness state machine. Order matters: values
/// are exported as the resmon_net_node_state gauge.
enum class NodeState : std::uint8_t {
  kLive = 0,   ///< reporting within stale_after_ms
  kStale = 1,  ///< silent past stale_after_ms: barrier skips it, the
               ///< pipeline degrades to sample-and-hold for this node
  kDead = 2,   ///< silent past dead_after_ms: evicted; may still rejoin
};

/// Stable lower-case name of a NodeState ("live", "stale", "dead").
const char* node_state_name(NodeState state);

struct ControllerOptions {
  std::size_t num_nodes = 0;      ///< N: nodes this collector fronts
  std::size_t num_resources = 0;  ///< d: required hello dimensionality
  /// First global node id this collector owns: valid hello node ids are
  /// [first_node, first_node + num_nodes). The root controller keeps the
  /// default 0; an aggregator fronting a mid-fleet shard sets its range so
  /// agents keep their global ids end to end (all public per-node APIs and
  /// metric labels speak global ids too).
  std::size_t first_node = 0;
  /// Number of aggregator shards allowed to connect (two-tier root mode).
  /// 0 = single-tier: shard hellos are rejected with kShardsNotEnabled.
  /// With M > 0 the root also accepts kSlotSummary/kShardStatus frames and
  /// exports per-shard staleness gauges; direct agent connections keep
  /// working, so a fleet can migrate tier by tier.
  std::size_t num_shards = 0;
  /// Where operators read the resmon_net_* series (non-owning), and the
  /// registry the metrics endpoint (serve_metrics) exposes. nullptr = the
  /// controller counts into a private registry: the accessors still work,
  /// but there is no endpoint and the per-node and per-shard label families
  /// are not registered at all. One registry serves one controller: a
  /// registry that already holds resmon_net_frames_total is rejected.
  obs::MetricsRegistry* metrics = nullptr;

  /// Graceful-degradation policy. A node silent for stale_after_ms becomes
  /// STALE: the slot barrier stops waiting for it and downstream stages run
  /// on its last stored sample (sample-and-hold). Silent past dead_after_ms
  /// it becomes DEAD and its connection (if any) is evicted. Any frame from
  /// the node — including a fresh hello — makes it LIVE again (rejoin).
  /// 0 disables the state machine: the barrier waits for every node
  /// forever (well, until collect_slot's timeout).
  int stale_after_ms = 0;
  int dead_after_ms = 0;  ///< 0 = nodes never pass STALE

  /// Clock read by the staleness state machine (last-seen bookkeeping and
  /// silence timers) — and by nothing else. Empty = steady_clock::now().
  /// Tests and the scenario runner inject a manual clock here to drive
  /// LIVE -> STALE -> DEAD deterministically, without real sleeps.
  std::function<std::chrono::steady_clock::time_point()> staleness_clock;

  /// Optional inbound-frame gate (fault injection). Empty = accept all.
  BlockHook block_hook;

  /// Optional operator log sink: one human-readable line per noteworthy
  /// event (rejected hello with its named reason, shard connects, streams
  /// dropped for wire errors). Empty = silent. The binaries route this to
  /// stderr; the library never writes to std streams on its own.
  std::function<void(const std::string&)> log_sink;
};

/// The measurements a controller has received but not yet surfaced: one
/// FIFO per node (local index), in arrival order, all threaded through one
/// pool of entries. A taken or dropped entry goes on a free list and the
/// next push reuses it, so once the pool has grown to the most
/// measurements ever queued at once, pushing and taking allocate nothing
/// beyond take()'s result.
class SlotInbox {
 public:
  explicit SlotInbox(std::size_t num_nodes);

  /// Append `m` to the back of `node`'s FIFO.
  void push(std::size_t node, transport::MeasurementMessage&& m);

  /// Slot `t` in node order. Each FIFO first drops its queued prefix with
  /// step < t, then yields its head if the head's step == t; later steps
  /// stay queued. So of two measurements for one (node, step) the first to
  /// arrive is taken. The result is sized from what is queued for `t`, and
  /// nothing is scanned when nothing is queued.
  std::vector<transport::MeasurementMessage> take(std::size_t t);

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  struct Entry {
    transport::MeasurementMessage message;
    std::uint32_t next = kNone;  ///< next entry of the same FIFO or free list
  };
  /// Unlink `node`'s head entry onto the free list.
  void pop(std::size_t node);

  std::vector<Entry> pool_;
  std::uint32_t free_ = kNone;  ///< head of the free list
  std::size_t queued_ = 0;           ///< entries on all FIFOs
  std::vector<std::uint32_t> head_;  ///< per node: oldest entry or kNone
  std::vector<std::uint32_t> tail_;  ///< per node: newest entry or kNone
};

/// Hello rejection vocabulary — shared with agents/aggregators, so it lives
/// in net/wire.hpp; aliased here for the controller-side call sites.
using HelloReject = wire::HelloReject;

class Controller {
 public:
  /// Takes ownership of a listening socket from Socket::listen_tcp.
  Controller(Socket listener, const ControllerOptions& options);

  /// Port the listener is bound to (resolves port-0 binds).
  std::uint16_t port() const { return listener_.local_port(); }

  /// Attach a second listening socket serving the metrics registry as a
  /// Prometheus text exposition over minimal HTTP/1.0 ("GET anything" ->
  /// 200 + render_text + close). Scrapes are handled inside the same
  /// poll(2) loop that drives the agents, so the endpoint is live whenever
  /// the controller is pumping (wait_for_agents / collect_slot / pump_idle).
  /// Requires ControllerOptions::metrics.
  void serve_metrics(Socket listener);

  /// Port of the metrics listener (after serve_metrics).
  std::uint16_t metrics_port() const { return metrics_listener_.local_port(); }

  /// Completed metrics scrapes (responses fully written).
  std::uint64_t metrics_scrapes() const { return m_scrapes_total_->value(); }

  /// Pump the event loop for `duration_ms` without waiting on any slot:
  /// lets the metrics endpoint answer scrapes after the run loop finished.
  /// Returns early once `until_scrapes` total scrapes have completed
  /// (0 = never return early).
  void pump_idle(int duration_ms, std::uint64_t until_scrapes = 0);

  /// Pump the event loop until `count` distinct nodes have completed the
  /// hello handshake at least once, or `timeout_ms` elapses. Counts nodes
  /// ever seen, not live sockets: a fast agent may have pushed its whole
  /// run into the TCP buffer and disconnected before this is even called,
  /// and its buffered frames are still perfectly collectable.
  bool wait_for_agents(std::size_t count, int timeout_ms);

  /// Pump until every node's progress covers slot `t`, then return the
  /// slot-t measurements in node order (nodes whose policy stayed silent
  /// contribute nothing). nullopt on timeout. Slots must be collected in
  /// increasing order starting at 0.
  std::optional<std::vector<transport::MeasurementMessage>> collect_slot(
      std::size_t t, int timeout_ms);

  /// Agent streams currently connected (hello completed, socket alive):
  /// the resmon_net_connected_agents gauge. A shard's stream counts in
  /// connected_shards() instead.
  std::size_t connected_agents() const {
    return static_cast<std::size_t>(m_connected_agents_->value());
  }
  /// Distinct nodes that have ever completed a hello handshake (directly or
  /// via a shard hello covering their range).
  std::size_t nodes_seen() const { return nodes_seen_; }

  /// Pump until `count` distinct shards have completed their shard-hello
  /// handshake, or `timeout_ms` elapses (two-tier root mode).
  bool wait_for_shards(std::size_t count, int timeout_ms);
  /// Distinct shards that ever completed a shard hello.
  std::size_t shards_seen() const { return shards_seen_; }
  /// Shards with a live, handshake-completed connection right now: the
  /// resmon_net_shards_connected gauge.
  std::size_t connected_shards() const {
    return static_cast<std::size_t>(m_shards_connected_->value());
  }
  /// Slot-summary frames accepted from shards.
  std::uint64_t summaries_received() const {
    return m_summaries_total_->value();
  }
  /// Measurements carried inside accepted slot summaries.
  std::uint64_t summary_measurements() const {
    return m_summary_measurements_total_->value();
  }

  std::uint64_t frames_received() const { return m_frames_total_->value(); }
  std::uint64_t bytes_received() const { return m_bytes_total_->value(); }
  /// Connections dropped for wire-protocol or semantic violations.
  std::uint64_t connections_rejected() const {
    return m_rejected_total_->value();
  }

  /// Current liveness verdict for one node (global node id).
  NodeState node_state(std::size_t node) const {
    return states_.at(node - options_.first_node);
  }
  /// Nodes currently STALE and currently DEAD: the resmon_net_stale_nodes
  /// and resmon_net_dead_nodes gauges, kept by +-1 per transition.
  std::size_t stale_nodes() const {
    return static_cast<std::size_t>(m_stale_nodes_->value());
  }
  std::size_t dead_nodes() const {
    return static_cast<std::size_t>(m_dead_nodes_->value());
  }
  /// LIVE -> STALE transitions (a node may contribute several).
  std::uint64_t stale_transitions() const {
    return m_stale_transitions_total_->value();
  }
  /// -> DEAD transitions.
  std::uint64_t dead_transitions() const {
    return m_dead_transitions_total_->value();
  }
  /// STALE/DEAD -> LIVE transitions (the node reported again).
  std::uint64_t rejoins() const { return m_rejoins_total_->value(); }
  /// Slots the barrier completed while skipping at least one non-LIVE node
  /// (i.e. slots that ran on sample-and-hold data for some node).
  std::uint64_t degraded_slots() const {
    return m_degraded_slots_total_->value();
  }
  /// Inbound frames discarded by ControllerOptions::block_hook.
  std::uint64_t blocked_frames() const {
    return m_blocked_frames_total_->value();
  }

 private:
  struct Connection {
    Socket sock;
    wire::FrameDecoder decoder;
    long long node = -1;   ///< -1 until the hello handshake completes
    long long shard = -1;  ///< -1 unless a shard hello completed instead
    explicit Connection(Socket s) : sock(std::move(s)) {}
  };

  /// What the root knows about one aggregator shard after its hello.
  struct ShardInfo {
    std::size_t first_node = 0;
    std::size_t num_nodes = 0;
    bool seen = false;
  };

  /// A pending scrape on the metrics port: buffered request bytes until
  /// the header terminator (or EOF) arrives, then one response and close.
  struct MetricsConnection {
    Socket sock;
    std::string request;
    explicit MetricsConnection(Socket s) : sock(std::move(s)) {}
  };

  /// One event-loop iteration: accept, read, decode, dispatch.
  void pump(int timeout_ms);
  /// Pump until `done()` holds (true) or `timeout_ms` elapses (false): the
  /// one wait loop behind pump_idle, wait_for_agents, wait_for_shards and
  /// collect_slot's barrier. Defined in controller.cpp, its only user.
  template <typename Done>
  bool pump_until(int timeout_ms, Done done);
  void accept_pending();
  void accept_metrics_pending();
  /// Read every available byte from `conn`, up to kReadChunk per read;
  /// returns false if the connection should be dropped.
  bool service(Connection& conn);
  /// Returns false once the scrape is finished (response sent or peer
  /// gone) and the connection should be closed.
  bool service_metrics(MetricsConnection& conn);
  bool handle_frame(Connection& conn, wire::Frame&& frame);
  /// The step a measurement `m` and a heartbeat (`m` == nullptr) share:
  /// false unless the stream speaks for `node`; a frame the block hook eats
  /// is counted and dropped; otherwise `node`'s progress reaches `step`, it
  /// is touched, `m` is queued and `accepted` counts the frame.
  bool advance(const Connection& conn, std::size_t node, std::uint64_t step,
               obs::Counter& accepted, transport::MeasurementMessage* m);
  /// The handshake both hello kinds share after their own checks left
  /// `reject`: a second hello on one stream is kDuplicateNode; an accepted
  /// `id` displaces the stream whose `role` (&Connection::node or ::shard)
  /// holds it (newest-wins); the ack goes out; a rejection is logged (a
  /// shard's naming `peer_protocol`). On acceptance the stream takes `id`
  /// and the global nodes [first_node, first_node + num_nodes) are marked
  /// seen and alive. False when the stream must be dropped.
  bool accept_hello(Connection& conn, long long Connection::*role,
                    std::uint32_t id, HelloReject reject,
                    std::uint8_t peer_protocol, std::size_t first_node,
                    std::size_t num_nodes);
  bool handle_hello(Connection& conn, const wire::HelloFrame& hello);
  bool handle_shard_hello(Connection& conn, const wire::ShardHelloFrame& sh);
  bool handle_slot_summary(Connection& conn, wire::SlotSummaryFrame&& s);
  bool handle_shard_status(Connection& conn, const wire::ShardStatusFrame& s);
  void drop(int fd);
  void drop_metrics(int fd);
  /// Count a poisoned stream against resmon_net_wire_errors_total.
  void count_wire_error(wire::WireError error);
  /// Now according to the staleness clock (injectable; see
  /// ControllerOptions::staleness_clock).
  std::chrono::steady_clock::time_point staleness_now() const;
  /// Record evidence of life from a node at `now` (one staleness_now()
  /// read per frame) and rejoin it if it was not LIVE. Takes a *local*
  /// index (global id minus first_node), like every private per-node
  /// helper; the public API and metric labels speak global ids.
  void touch(std::size_t node, std::chrono::steady_clock::time_point now);
  /// Apply the stale_after/dead_after policy to every node's silence timer;
  /// evicts connections of nodes that just became DEAD. Called once per
  /// pump(). No-op when stale_after_ms is 0.
  void update_node_states();
  /// Move `node` to `state`, maintaining counters and gauges.
  void set_node_state(std::size_t node, NodeState state);

  ControllerOptions options_;
  obs::RegistryRef registry_;  ///< options_.metrics, else a private one
  Socket listener_;
  Socket metrics_listener_;  ///< invalid until serve_metrics
  Poller poller_;
  std::unordered_map<int, Connection> connections_;
  std::unordered_map<int, MetricsConnection> metrics_connections_;
  std::vector<char> seen_;  ///< per-node: hello ever completed
  std::size_t nodes_seen_ = 0;
  /// Highest slot each node has reported (measurement or heartbeat); -1
  /// until the first frame. Survives reconnects.
  std::vector<long long> progress_;
  /// Received measurements not yet surfaced by collect_slot, per node in
  /// arrival order (TCP preserves per-connection order).
  SlotInbox inbox_;
  /// Bytes of one read_some() from any connection.
  std::vector<std::uint8_t> read_buffer_;
  /// Staleness state machine (all vectors indexed by node).
  std::vector<NodeState> states_;
  /// Last evidence of life; starts at construction, so a node that never
  /// connects still ages into STALE/DEAD instead of blocking forever.
  std::vector<std::chrono::steady_clock::time_point> last_seen_;
  /// Two-tier root bookkeeping (empty/zero in single-tier mode).
  std::vector<ShardInfo> shards_;  ///< size num_shards
  std::size_t shards_seen_ = 0;
  /// Slots some shard summary flagged degraded, pending consumption by
  /// collect_slot's own degradation accounting (so a two-tier root counts
  /// exactly the slots a single-tier controller would).
  std::set<std::uint64_t> degraded_marks_;
  // Series in registry_, registered by the constructor (never nullptr).
  obs::Counter* m_frames_total_ = nullptr;
  obs::Counter* m_measurements_total_ = nullptr;
  obs::Counter* m_heartbeats_total_ = nullptr;
  obs::Counter* m_bytes_total_ = nullptr;
  obs::Counter* m_connections_total_ = nullptr;
  obs::Counter* m_rejected_total_ = nullptr;
  obs::Counter* m_stale_dropped_total_ = nullptr;
  obs::Counter* m_slots_total_ = nullptr;
  obs::Counter* m_slot_timeouts_total_ = nullptr;
  obs::Counter* m_scrapes_total_ = nullptr;
  obs::Gauge* m_connected_agents_ = nullptr;
  obs::Histogram* m_slot_wait_ms_ = nullptr;
  obs::Counter* m_stale_transitions_total_ = nullptr;
  obs::Counter* m_dead_transitions_total_ = nullptr;
  obs::Counter* m_rejoins_total_ = nullptr;
  obs::Counter* m_degraded_slots_total_ = nullptr;
  obs::Counter* m_blocked_frames_total_ = nullptr;
  obs::Gauge* m_stale_nodes_ = nullptr;
  obs::Gauge* m_dead_nodes_ = nullptr;
  obs::Counter* m_summaries_total_ = nullptr;
  obs::Counter* m_summary_measurements_total_ = nullptr;
  obs::Counter* m_shard_status_total_ = nullptr;
  obs::Gauge* m_shards_connected_ = nullptr;
  // Per-node and per-shard label families: registered only in a registry
  // the caller supplied (empty otherwise), since nobody can read them from
  // a private one.
  std::vector<obs::Gauge*> m_node_state_;         ///< per node
  std::vector<obs::Gauge*> m_node_staleness_ms_;  ///< per node
  std::vector<obs::Gauge*> m_shard_live_;   ///< per shard
  std::vector<obs::Gauge*> m_shard_stale_;  ///< per shard
  std::vector<obs::Gauge*> m_shard_dead_;   ///< per shard

  /// Emit one line to ControllerOptions::log_sink (no-op when unset).
  void log(const std::string& line) const;
};

/// Complete blocking handshakes against an in-process `collector`.
/// Agent::connect() and Aggregator::connect_upstream() block until the
/// collector acks their hello, so each `connects[i]` runs on its own helper
/// thread while the calling thread pumps `collector` until every helper is
/// done. The loop polls only the helpers' done count, never the connecting
/// objects, which their helpers are still writing. Every helper is joined
/// before the first failure (in `connects` order) is rethrown. A connect
/// may be any blocking work that needs `collector` pumped, such as an
/// observe() that reconnects first.
void connect_pumping(Controller& collector,
                     std::span<const std::function<void()>> connects);

/// A span of one: a shard hello or a single agent's (re)join.
inline void connect_pumping(Controller& collector,
                            const std::function<void()>& connect) {
  connect_pumping(collector, {&connect, 1});
}

}  // namespace resmon::net
