#include "net/controller.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

namespace resmon::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Whole milliseconds left before `deadline`, rounded up: a sub-millisecond
/// remainder still buys one 1 ms pump.
int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
  return static_cast<int>(std::max<long long>(0, left.count()));
}

constexpr int kPumpSliceMs = 20;  ///< poll granularity inside a wait loop

/// Most bytes one read_some() takes from a connection: a shard summary of
/// a 12,478-node fleet (224,644 bytes at d = 4) arrives in four reads.
constexpr std::size_t kReadChunk = std::size_t{64} << 10;

}  // namespace

SlotInbox::SlotInbox(std::size_t num_nodes)
    : head_(num_nodes, kNone), tail_(num_nodes, kNone) {}

void SlotInbox::push(std::size_t node, transport::MeasurementMessage&& m) {
  std::uint32_t e = free_;
  if (e == kNone) {
    e = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back({std::move(m), kNone});
  } else {
    free_ = pool_[e].next;
    pool_[e] = {std::move(m), kNone};
  }
  if (tail_[node] == kNone) {
    head_[node] = e;
  } else {
    pool_[tail_[node]].next = e;
  }
  tail_[node] = e;
  ++queued_;
}

void SlotInbox::pop(std::size_t node) {
  const std::uint32_t e = head_[node];
  head_[node] = pool_[e].next;
  if (head_[node] == kNone) tail_[node] = kNone;
  pool_[e].next = free_;
  free_ = e;
  --queued_;
}

std::vector<transport::MeasurementMessage> SlotInbox::take(std::size_t t) {
  std::vector<transport::MeasurementMessage> out;
  if (queued_ == 0) return out;
  const auto head_step = [&](std::size_t node) {
    return pool_[head_[node]].message.step;
  };
  std::size_t due = 0;
  for (std::size_t node = 0; node < head_.size(); ++node) {
    // Skipped or re-collected slots would leave older frames behind;
    // discard them so the store only ever moves forward.
    while (head_[node] != kNone && head_step(node) < t) {
      pool_[head_[node]].message = {};  // release the dropped values
      pop(node);
    }
    if (head_[node] != kNone && head_step(node) == t) ++due;
  }
  out.reserve(due);
  for (std::size_t node = 0; out.size() < due; ++node) {
    if (head_[node] != kNone && head_step(node) == t) {
      out.push_back(std::move(pool_[head_[node]].message));
      pop(node);
    }
  }
  return out;
}

const char* node_state_name(NodeState state) {
  switch (state) {
    case NodeState::kLive:
      return "live";
    case NodeState::kStale:
      return "stale";
    case NodeState::kDead:
      return "dead";
  }
  return "unknown";
}

Controller::Controller(Socket listener, const ControllerOptions& options)
    : options_(options),
      registry_(options.metrics, "resmon_net_frames_total"),
      listener_(std::move(listener)),
      seen_(options.num_nodes, 0),
      progress_(options.num_nodes, -1),
      inbox_(options.num_nodes),
      read_buffer_(kReadChunk),
      states_(options.num_nodes, NodeState::kLive),
      // staleness_now() reads only options_, which is initialized above.
      last_seen_(options.num_nodes, staleness_now()) {
  RESMON_REQUIRE(options.num_nodes > 0, "Controller needs at least one node");
  RESMON_REQUIRE(options.num_resources > 0,
                 "Controller needs at least one resource");
  RESMON_REQUIRE(listener_.valid(), "Controller needs a listening socket");
  RESMON_REQUIRE(
      options.dead_after_ms == 0 || options.stale_after_ms == 0 ||
          options.dead_after_ms >= options.stale_after_ms,
      "dead_after_ms must be >= stale_after_ms");
  shards_.resize(options_.num_shards);
  poller_.watch(listener_.fd());
  obs::MetricsRegistry& reg = *registry_;
  m_frames_total_ = &reg.counter("resmon_net_frames_total",
                                 "Frames decoded from agent streams");
  m_measurements_total_ = &reg.counter("resmon_net_measurements_total",
                                       "Measurement frames accepted");
  m_heartbeats_total_ = &reg.counter("resmon_net_heartbeats_total",
                                     "Heartbeat frames accepted");
  m_bytes_total_ =
      &reg.counter("resmon_net_bytes_total", "Raw bytes read from agents");
  m_connections_total_ = &reg.counter("resmon_net_connections_total",
                                      "Agent connections accepted");
  m_rejected_total_ = &reg.counter(
      "resmon_net_connections_rejected_total",
      "Connections dropped for wire-protocol or semantic violations");
  m_stale_dropped_total_ = &reg.counter(
      "resmon_net_stale_connections_dropped_total",
      "Half-open connections displaced by a newer hello (newest-wins)");
  m_slots_total_ = &reg.counter("resmon_net_slots_total",
                                "Slots fully collected across all nodes");
  m_slot_timeouts_total_ = &reg.counter(
      "resmon_net_slot_timeouts_total",
      "collect_slot calls that gave up before the barrier completed");
  m_scrapes_total_ = &reg.counter("resmon_net_metrics_scrapes_total",
                                  "Completed metrics-endpoint scrapes");
  m_connected_agents_ = &reg.gauge(
      "resmon_net_connected_agents",
      "Nodes with a live, hello-completed connection right now");
  m_slot_wait_ms_ = &reg.histogram(
      "resmon_net_slot_wait_ms",
      "Wall-clock milliseconds collect_slot waited at the slot barrier",
      obs::duration_ms_buckets());
  // Eagerly register every wire-error label value so the family is
  // complete (and visible to the docs drift test) before any error
  // happens; count_wire_error then only looks existing series up.
  for (int e = static_cast<int>(wire::WireError::kBadMagic);
       e <= static_cast<int>(wire::WireError::kTruncated); ++e) {
    reg.counter("resmon_net_wire_errors_total",
                "Byte streams rejected by the frame decoder, by error",
                {{"error",
                  wire::wire_error_name(static_cast<wire::WireError>(e))}});
  }
  // Degradation observability.
  m_stale_transitions_total_ =
      &reg.counter("resmon_net_stale_transitions_total",
                   "LIVE -> STALE transitions of the staleness policy");
  m_dead_transitions_total_ =
      &reg.counter("resmon_net_dead_transitions_total",
                   "Transitions to DEAD (node evicted after silence)");
  m_rejoins_total_ =
      &reg.counter("resmon_net_rejoins_total",
                   "STALE/DEAD -> LIVE transitions (node reported again)");
  m_degraded_slots_total_ = &reg.counter(
      "resmon_net_degraded_slots_total",
      "Slots completed while skipping at least one non-LIVE node "
      "(sample-and-hold degradation)");
  m_blocked_frames_total_ = &reg.counter(
      "resmon_net_blocked_frames_total",
      "Inbound frames discarded by the controller's block hook");
  m_stale_nodes_ =
      &reg.gauge("resmon_net_stale_nodes", "Nodes currently STALE");
  m_dead_nodes_ = &reg.gauge("resmon_net_dead_nodes", "Nodes currently DEAD");
  // Two-tier root totals (zero unless num_shards > 0 lets shards in).
  m_summaries_total_ =
      &reg.counter("resmon_net_summaries_total",
                   "Slot-summary frames accepted from aggregator shards");
  m_summary_measurements_total_ = &reg.counter(
      "resmon_net_summary_measurements_total",
      "Measurements carried inside accepted slot summaries");
  m_shard_status_total_ =
      &reg.counter("resmon_net_shard_status_total",
                   "Shard-status census frames accepted from aggregators");
  m_shards_connected_ = &reg.gauge(
      "resmon_net_shards_connected",
      "Aggregator shards with a live, hello-completed connection");
  // The label families below cost ~3 MB and a per-slot pass at N = 12,478;
  // nobody can read them from a private registry, so only a caller's gets
  // them.
  if (!registry_.shared()) return;
  m_node_state_.resize(options_.num_nodes, nullptr);
  m_node_staleness_ms_.resize(options_.num_nodes, nullptr);
  for (std::size_t node = 0; node < options_.num_nodes; ++node) {
    // Labels carry the *global* node id, so an aggregator fronting a
    // mid-fleet shard exports the same series names the root would.
    const obs::Labels labels = {
        {"node", std::to_string(options_.first_node + node)}};
    m_node_state_[node] = &reg.gauge(
        "resmon_net_node_state",
        "Liveness verdict per node: 0 = live, 1 = stale, 2 = dead", labels);
    m_node_staleness_ms_[node] = &reg.gauge(
        "resmon_net_node_staleness_ms",
        "Milliseconds since the node last showed evidence of life", labels);
  }
  m_shard_live_.resize(options_.num_shards, nullptr);
  m_shard_stale_.resize(options_.num_shards, nullptr);
  m_shard_dead_.resize(options_.num_shards, nullptr);
  for (std::size_t shard = 0; shard < options_.num_shards; ++shard) {
    const obs::Labels labels = {{"shard", std::to_string(shard)}};
    m_shard_live_[shard] = &reg.gauge(
        "resmon_net_shard_live_nodes",
        "LIVE nodes per shard, from the latest shard-status census", labels);
    m_shard_stale_[shard] = &reg.gauge(
        "resmon_net_shard_stale_nodes",
        "STALE nodes per shard, from the latest shard-status census", labels);
    m_shard_dead_[shard] = &reg.gauge(
        "resmon_net_shard_dead_nodes",
        "DEAD nodes per shard, from the latest shard-status census", labels);
  }
}

void Controller::log(const std::string& line) const {
  if (options_.log_sink) options_.log_sink(line);
}

void Controller::serve_metrics(Socket listener) {
  RESMON_REQUIRE(options_.metrics != nullptr,
                 "serve_metrics requires ControllerOptions::metrics");
  RESMON_REQUIRE(listener.valid(), "serve_metrics needs a listening socket");
  RESMON_REQUIRE(!metrics_listener_.valid(),
                 "metrics endpoint already attached");
  metrics_listener_ = std::move(listener);
  poller_.watch(metrics_listener_.fd());
}

template <typename Done>
bool Controller::pump_until(int timeout_ms, Done done) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    const int left = remaining_ms(deadline);
    if (left == 0) return false;
    pump(std::min(left, kPumpSliceMs));
  }
  return true;
}

void Controller::pump_idle(int duration_ms, std::uint64_t until_scrapes) {
  pump_until(duration_ms, [&] {
    return until_scrapes != 0 && metrics_scrapes() >= until_scrapes;
  });
}

bool Controller::wait_for_agents(std::size_t count, int timeout_ms) {
  return pump_until(timeout_ms, [&] { return nodes_seen_ >= count; });
}

bool Controller::wait_for_shards(std::size_t count, int timeout_ms) {
  return pump_until(timeout_ms, [&] { return shards_seen_ >= count; });
}

std::optional<std::vector<transport::MeasurementMessage>>
Controller::collect_slot(std::size_t t, int timeout_ms) {
  // The barrier waits for LIVE nodes only: a STALE or DEAD node's slot is
  // given up on, and the pipeline degrades to its last stored sample. The
  // node's progress still counts if its frames do arrive (e.g. right before
  // the verdict flipped).
  auto slot_complete = [&] {
    for (std::size_t node = 0; node < options_.num_nodes; ++node) {
      if (progress_[node] < static_cast<long long>(t) &&
          states_[node] == NodeState::kLive) {
        return false;
      }
    }
    return true;
  };
  const auto wait_start = Clock::now();
  if (!pump_until(timeout_ms, slot_complete)) {
    m_slot_timeouts_total_->inc();
    return std::nullopt;
  }
  bool degraded = false;
  for (std::size_t node = 0; node < options_.num_nodes; ++node) {
    if (progress_[node] < static_cast<long long>(t)) degraded = true;
  }
  // A shard summary marks the slot degraded when the *shard's* barrier
  // skipped a non-LIVE node, even though the summary itself advances every
  // covered node's progress here — this keeps the root's degraded-slot
  // count identical to a single-tier controller fronting the same fleet.
  if (degraded_marks_.count(t) != 0) degraded = true;
  degraded_marks_.erase(degraded_marks_.begin(),
                        degraded_marks_.upper_bound(t));
  if (degraded) m_degraded_slots_total_->inc();
  m_slots_total_->inc();
  m_slot_wait_ms_->observe(
      std::chrono::duration<double, std::milli>(Clock::now() - wait_start)
          .count());

  return inbox_.take(t);
}

void Controller::pump(int timeout_ms) {
  for (const PollEvent& ev : poller_.wait(timeout_ms)) {
    if (ev.fd == listener_.fd()) {
      accept_pending();
      continue;
    }
    if (metrics_listener_.valid() && ev.fd == metrics_listener_.fd()) {
      accept_metrics_pending();
      continue;
    }
    if (auto mit = metrics_connections_.find(ev.fd);
        mit != metrics_connections_.end()) {
      if ((ev.readable || ev.hangup) && !service_metrics(mit->second)) {
        drop_metrics(ev.fd);
      }
      continue;
    }
    auto it = connections_.find(ev.fd);
    if (it == connections_.end()) continue;  // dropped earlier this round
    if (ev.readable || ev.hangup) {
      if (!service(it->second)) drop(ev.fd);
    }
  }
  update_node_states();
}

void Controller::accept_pending() {
  while (std::optional<Socket> sock = listener_.accept()) {
    const int fd = sock->fd();
    connections_.emplace(fd, Connection(std::move(*sock)));
    poller_.watch(fd);
    m_connections_total_->inc();
  }
}

void Controller::accept_metrics_pending() {
  while (std::optional<Socket> sock = metrics_listener_.accept()) {
    const int fd = sock->fd();
    metrics_connections_.emplace(fd, MetricsConnection(std::move(*sock)));
    poller_.watch(fd);
  }
}

bool Controller::service_metrics(MetricsConnection& conn) {
  std::uint8_t buf[1024];
  bool request_done = false;
  for (;;) {
    std::size_t n = 0;
    const IoStatus status = conn.sock.read_some(buf, n);
    if (status == IoStatus::kOk) {
      conn.request.append(reinterpret_cast<const char*>(buf), n);
      // Ignore whatever was actually asked for: every request gets the full
      // exposition. Cap the request buffer so a hostile client cannot grow
      // it without bound.
      if (conn.request.size() > 8192) return false;
      if (conn.request.find("\r\n\r\n") != std::string::npos ||
          conn.request.find("\n\n") != std::string::npos) {
        request_done = true;
        break;
      }
      continue;
    }
    if (status == IoStatus::kWouldBlock) return true;  // wait for more
    // kClosed with a nonempty request: peer shut down its write side
    // (e.g. `curl --http0.9`); still answer.
    request_done = !conn.request.empty();
    break;
  }
  if (!request_done) return false;

  const std::string body = options_.metrics->render_text();
  std::string response =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n\r\n" +
      body;
  const bool wrote = conn.sock.write_all(
      {reinterpret_cast<const std::uint8_t*>(response.data()),
       response.size()},
      1000);
  if (wrote) m_scrapes_total_->inc();
  return false;  // one response per connection; close either way
}

void Controller::drop_metrics(int fd) {
  auto it = metrics_connections_.find(fd);
  if (it == metrics_connections_.end()) return;
  poller_.unwatch(fd);
  metrics_connections_.erase(it);  // Socket destructor closes the fd
}

void Controller::count_wire_error(wire::WireError error) {
  // Every label value was pre-registered in the constructor, so this is a
  // pure lookup of the existing series.
  registry_
      ->counter("resmon_net_wire_errors_total",
                "Byte streams rejected by the frame decoder, by error",
                {{"error", wire::wire_error_name(error)}})
      .inc();
}

void Controller::set_node_state(std::size_t node, NodeState state) {
  const NodeState previous = states_[node];
  if (previous == state) return;
  states_[node] = state;
  if (previous == NodeState::kStale) m_stale_nodes_->add(-1.0);
  if (previous == NodeState::kDead) m_dead_nodes_->add(-1.0);
  if (state == NodeState::kStale) {
    m_stale_transitions_total_->inc();
    m_stale_nodes_->add(1.0);
  } else if (state == NodeState::kDead) {
    m_dead_transitions_total_->inc();
    m_dead_nodes_->add(1.0);
  } else {
    m_rejoins_total_->inc();
  }
  if (!m_node_state_.empty()) {
    m_node_state_[node]->set(static_cast<double>(state));
  }
}

Clock::time_point Controller::staleness_now() const {
  return options_.staleness_clock ? options_.staleness_clock() : Clock::now();
}

void Controller::touch(std::size_t node, Clock::time_point now) {
  last_seen_[node] = now;
  if (!m_node_staleness_ms_.empty()) m_node_staleness_ms_[node]->set(0.0);
  if (states_[node] != NodeState::kLive) {
    set_node_state(node, NodeState::kLive);
  }
}

void Controller::update_node_states() {
  if (options_.stale_after_ms <= 0) return;
  const auto now = staleness_now();
  for (std::size_t node = 0; node < options_.num_nodes; ++node) {
    const auto silence_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - last_seen_[node])
            .count();
    if (!m_node_staleness_ms_.empty()) {
      m_node_staleness_ms_[node]->set(static_cast<double>(silence_ms));
    }
    if (options_.dead_after_ms > 0 && silence_ms >= options_.dead_after_ms) {
      if (states_[node] != NodeState::kDead) {
        set_node_state(node, NodeState::kDead);
        // Evict: whatever socket the node still holds is presumed dead
        // weight. A later frame requires a fresh connection (rejoin).
        const long long global =
            static_cast<long long>(options_.first_node + node);
        const auto it = std::find_if(
            connections_.begin(), connections_.end(),
            [&](const auto& kv) { return kv.second.node == global; });
        if (it != connections_.end()) drop(it->first);
      }
    } else if (silence_ms >= options_.stale_after_ms) {
      if (states_[node] == NodeState::kLive) {
        set_node_state(node, NodeState::kStale);
      }
    }
  }
}

bool Controller::service(Connection& conn) {
  for (;;) {
    std::size_t n = 0;
    const IoStatus status = conn.sock.read_some(read_buffer_, n);
    if (status == IoStatus::kOk) {
      m_bytes_total_->inc(n);
      if (!conn.decoder.feed({read_buffer_.data(), n})) {
        m_rejected_total_->inc();
        count_wire_error(conn.decoder.error());
        return false;  // poisoned stream: drop the connection
      }
      while (std::optional<wire::Frame> frame = conn.decoder.next()) {
        m_frames_total_->inc();
        if (!handle_frame(conn, std::move(*frame))) {
          m_rejected_total_->inc();
          return false;
        }
      }
      continue;
    }
    if (status == IoStatus::kWouldBlock) return true;
    return false;  // kClosed
  }
}

bool Controller::handle_frame(Connection& conn, wire::Frame&& frame) {
  if (const auto* hello = std::get_if<wire::HelloFrame>(&frame)) {
    return handle_hello(conn, *hello);
  }
  if (const auto* sh = std::get_if<wire::ShardHelloFrame>(&frame)) {
    return handle_shard_hello(conn, *sh);
  }
  if (auto* summary = std::get_if<wire::SlotSummaryFrame>(&frame)) {
    return handle_slot_summary(conn, std::move(*summary));
  }
  if (const auto* status = std::get_if<wire::ShardStatusFrame>(&frame)) {
    return handle_shard_status(conn, *status);
  }
  // Every other agent frame requires a completed handshake, and its node id
  // must match the handshake (one stream speaks for one node).
  if (auto* m = std::get_if<transport::MeasurementMessage>(&frame)) {
    return m->values.size() == options_.num_resources &&
           advance(conn, m->node, m->step, *m_measurements_total_, m);
  }
  if (const auto* hb = std::get_if<wire::HeartbeatFrame>(&frame)) {
    return advance(conn, hb->node, hb->step, *m_heartbeats_total_, nullptr);
  }
  // HelloAck is controller -> agent only.
  return false;
}

bool Controller::advance(const Connection& conn, std::size_t node,
                         std::uint64_t step, obs::Counter& accepted,
                         transport::MeasurementMessage* m) {
  if (conn.node < 0 || node != static_cast<std::size_t>(conn.node)) {
    return false;
  }
  if (options_.block_hook &&
      options_.block_hook(static_cast<std::uint32_t>(node), step)) {
    m_blocked_frames_total_->inc();
    return true;  // frame eaten by the simulated partition; stream is fine
  }
  const std::size_t local = node - options_.first_node;
  progress_[local] = std::max(progress_[local], static_cast<long long>(step));
  touch(local, staleness_now());
  if (m != nullptr) inbox_.push(local, std::move(*m));
  accepted.inc();
  return true;
}

bool Controller::accept_hello(Connection& conn, long long Connection::*role,
                              std::uint32_t id, HelloReject reject,
                              std::uint8_t peer_protocol,
                              std::size_t first_node, std::size_t num_nodes) {
  if (reject == HelloReject::kNone && (conn.node >= 0 || conn.shard >= 0)) {
    reject = HelloReject::kDuplicateNode;  // second hello on one stream
  }
  if (reject == HelloReject::kNone) {
    // Newest-wins: a reconnecting peer can beat the controller to noticing
    // its old connection died (lost RST, partition). The fresh hello is
    // authoritative — drop the stale socket instead of locking the id out
    // with kDuplicateNode. `conn` stays valid: erasing a different
    // unordered_map element does not invalidate it.
    const auto stale = std::find_if(
        connections_.begin(), connections_.end(), [&](const auto& kv) {
          return kv.second.*role == static_cast<long long>(id);
        });
    if (stale != connections_.end()) {
      drop(stale->first);
      m_stale_dropped_total_->inc();
    }
  }
  // The ack echoes the node (or shard) id. Best-effort: a failed write
  // surfaces as a drop either way.
  const wire::HelloAckFrame ack{
      .node = id,
      .accepted = reject == HelloReject::kNone,
      .reason = static_cast<std::uint8_t>(reject)};
  const bool wrote = conn.sock.write_all(wire::encode(ack), 1000);
  if (reject != HelloReject::kNone) {
    const auto reason = static_cast<std::uint8_t>(reject);
    log(role == &Connection::node
            ? "rejected hello from node " + std::to_string(id) + " (" +
                  wire::hello_reject_name(reason) + ")"
            : "rejected shard hello from shard " + std::to_string(id) +
                  " (" + wire::describe_hello_reject(reason, peer_protocol) +
                  ")");
    return false;
  }
  if (!wrote) return false;
  conn.*role = static_cast<long long>(id);
  // The stream speaks for every node in its range: mark them seen (so
  // wait_for_agents counts a shard's nodes too) and alive, since a fresh
  // handshake is evidence of life.
  const Clock::time_point now = staleness_now();
  const std::size_t begin = first_node - options_.first_node;
  for (std::size_t local = begin; local < begin + num_nodes; ++local) {
    if (!seen_[local]) {
      seen_[local] = 1;
      ++nodes_seen_;
    }
    touch(local, now);
  }
  return true;
}

bool Controller::handle_hello(Connection& conn, const wire::HelloFrame& hello) {
  HelloReject reject = HelloReject::kNone;
  if (hello.node < options_.first_node ||
      hello.node >= options_.first_node + options_.num_nodes) {
    reject = HelloReject::kNodeOutOfRange;
  } else if (hello.num_resources != options_.num_resources) {
    reject = HelloReject::kDimensionMismatch;
  }
  if (!accept_hello(conn, &Connection::node, hello.node, reject,
                    wire::kProtocolVersion, hello.node, 1)) {
    return false;
  }
  m_connected_agents_->add(1.0);
  return true;
}

bool Controller::handle_shard_hello(Connection& conn,
                                    const wire::ShardHelloFrame& sh) {
  HelloReject reject = HelloReject::kNone;
  if (options_.num_shards == 0) {
    reject = HelloReject::kShardsNotEnabled;
  } else if (sh.shard >= options_.num_shards) {
    reject = HelloReject::kShardOutOfRange;
  } else if (sh.protocol != wire::kProtocolVersion) {
    reject = HelloReject::kVersionMismatch;
  } else if (sh.num_nodes == 0 || sh.first_node < options_.first_node ||
             std::size_t{sh.first_node} + sh.num_nodes >
                 options_.first_node + options_.num_nodes) {
    reject = HelloReject::kBadNodeRange;
  } else if (sh.num_resources != options_.num_resources) {
    reject = HelloReject::kDimensionMismatch;
  }
  if (!accept_hello(conn, &Connection::shard, sh.shard, reject,
                    static_cast<std::uint8_t>(sh.protocol), sh.first_node,
                    sh.num_nodes)) {
    return false;
  }
  // A summary of every node the shard fronts must fit this stream's frame
  // bound. The range was checked against the root's own fleet above, so a
  // hostile length field still cannot ask for more than that fleet needs.
  conn.decoder.set_max_payload(std::max(
      wire::kMaxPayloadSize,
      wire::slot_summary_payload_size(sh.num_nodes, options_.num_resources)));
  ShardInfo& info = shards_[sh.shard];
  info.first_node = sh.first_node;
  info.num_nodes = sh.num_nodes;
  if (!info.seen) {
    info.seen = true;
    ++shards_seen_;
  }
  m_shards_connected_->add(1.0);
  log("shard " + std::to_string(sh.shard) + " connected (nodes [" +
      std::to_string(sh.first_node) + ", " +
      std::to_string(std::size_t{sh.first_node} + sh.num_nodes) + "))");
  return true;
}

bool Controller::handle_slot_summary(Connection& conn,
                                     wire::SlotSummaryFrame&& s) {
  if (conn.shard < 0 || s.shard != static_cast<std::uint32_t>(conn.shard) ||
      s.num_resources != options_.num_resources) {
    return false;
  }
  const ShardInfo& info = shards_[s.shard];
  for (const transport::MeasurementMessage& m : s.measurements) {
    if (m.node < info.first_node ||
        m.node >= info.first_node + info.num_nodes) {
      return false;  // summary smuggles a node the shard does not own
    }
  }
  // The summary is the shard's slot barrier output: every fronted node has
  // progressed to `step` (non-LIVE nodes were skipped, which the shard
  // reports via `degraded` — see collect_slot).
  const Clock::time_point now = staleness_now();
  for (std::size_t node = info.first_node;
       node < info.first_node + info.num_nodes; ++node) {
    const std::size_t local = node - options_.first_node;
    progress_[local] =
        std::max(progress_[local], static_cast<long long>(s.step));
    touch(local, now);
  }
  for (transport::MeasurementMessage& m : s.measurements) {
    inbox_.push(m.node - options_.first_node, std::move(m));
  }
  m_measurements_total_->inc(s.measurements.size());
  if (s.degraded > 0) degraded_marks_.insert(s.step);
  m_summaries_total_->inc();
  m_summary_measurements_total_->inc(s.measurements.size());
  return true;
}

bool Controller::handle_shard_status(Connection& conn,
                                     const wire::ShardStatusFrame& s) {
  if (conn.shard < 0 || s.shard != static_cast<std::uint32_t>(conn.shard)) {
    return false;
  }
  m_shard_status_total_->inc();
  if (!m_shard_live_.empty()) {
    m_shard_live_[s.shard]->set(static_cast<double>(s.live));
    m_shard_stale_[s.shard]->set(static_cast<double>(s.stale));
    m_shard_dead_[s.shard]->set(static_cast<double>(s.dead));
  }
  return true;
}

void Controller::drop(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (it->second.node >= 0) m_connected_agents_->add(-1.0);
  if (it->second.shard >= 0) {
    m_shards_connected_->add(-1.0);
    log("shard " + std::to_string(it->second.shard) +
        " connection dropped");
  }
  poller_.unwatch(fd);
  connections_.erase(it);  // Socket destructor closes the fd
}

void connect_pumping(Controller& collector,
                     std::span<const std::function<void()>> connects) {
  std::vector<std::exception_ptr> failures(connects.size());
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> helpers;
  helpers.reserve(connects.size());
  // A helper that cannot start still lets the started ones finish and join.
  std::exception_ptr spawn_failure;
  try {
    for (std::size_t i = 0; i < connects.size(); ++i) {
      helpers.emplace_back([&, i] {
        try {
          connects[i]();
          // Captured for the deferred std::rethrow_exception after the joins.
          // resmon-lint-allow(catch-all-swallow): rethrown on the caller
        } catch (...) {
          failures[i] = std::current_exception();
        }
        done.fetch_add(1, std::memory_order_release);
      });
    }
    // resmon-lint-allow(catch-all-swallow): rethrown after the joins
  } catch (...) {
    spawn_failure = std::current_exception();
  }
  while (done.load(std::memory_order_acquire) < helpers.size()) {
    collector.pump_idle(10);
  }
  for (std::thread& helper : helpers) helper.join();
  if (spawn_failure != nullptr) std::rethrow_exception(spawn_failure);
  for (const std::exception_ptr& failure : failures) {
    if (failure != nullptr) std::rethrow_exception(failure);
  }
}

}  // namespace resmon::net
