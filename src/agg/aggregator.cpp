#include "agg/aggregator.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace resmon::agg {

namespace wire = net::wire;

namespace {

net::ControllerOptions downstream_options(const AggregatorOptions& o) {
  net::ControllerOptions copt;
  copt.num_nodes = o.num_nodes;
  copt.num_resources = o.num_resources;
  copt.first_node = o.first_node;
  copt.metrics = o.net_metrics;
  copt.stale_after_ms = o.stale_after_ms;
  copt.dead_after_ms = o.dead_after_ms;
  copt.staleness_clock = o.staleness_clock;
  copt.log_sink = o.log_sink;
  return copt;
}

obs::Labels shard_labels(const AggregatorOptions& o) {
  return {{"shard", std::to_string(o.shard)}};
}

std::vector<std::uint8_t> shard_hello(const AggregatorOptions& o) {
  return wire::encode(wire::ShardHelloFrame{
      .shard = static_cast<std::uint32_t>(o.shard),
      .first_node = static_cast<std::uint32_t>(o.first_node),
      .num_nodes = static_cast<std::uint32_t>(o.num_nodes),
      .num_resources = static_cast<std::uint32_t>(o.num_resources)});
}

}  // namespace

ShardRange shard_range(std::size_t num_nodes, std::size_t num_shards,
                       std::size_t shard) {
  RESMON_REQUIRE(num_shards > 0, "shard_range: num_shards must be positive");
  RESMON_REQUIRE(shard < num_shards, "shard_range: shard out of range");
  const std::size_t base = num_nodes / num_shards;
  const std::size_t extra = num_nodes % num_shards;
  ShardRange r;
  r.num_nodes = base + (shard < extra ? 1 : 0);
  r.first_node = shard * base + std::min(shard, extra);
  return r;
}

Aggregator::Aggregator(net::Socket listener, const AggregatorOptions& options)
    : options_(options),
      registry_(options.metrics, "resmon_agg_forwarded_slots_total",
                shard_labels(options)),
      downstream_(std::move(listener), downstream_options(options)),
      upstream_(options.upstream, shard_hello(options),
                static_cast<std::uint32_t>(options.shard),
                "aggregator shard " + std::to_string(options.shard), "root",
                registry_->gauge("resmon_agg_upstream_connected",
                                 "1 while the upstream link is up, else 0",
                                 shard_labels(options)),
                registry_->counter(
                    "resmon_agg_upstream_reconnects_total",
                    "Successful upstream re-handshakes after a connection "
                    "loss",
                    shard_labels(options))) {
  RESMON_REQUIRE(options_.upstream.port != 0,
                 "Aggregator needs an upstream port");
  obs::MetricsRegistry& reg = *registry_;
  const obs::Labels labels = shard_labels(options_);
  m_forwarded_slots_total_ =
      &reg.counter("resmon_agg_forwarded_slots_total",
                   "Slot summaries forwarded to the root", labels);
  m_forwarded_measurements_total_ = &reg.counter(
      "resmon_agg_forwarded_measurements_total",
      "Measurements carried inside forwarded slot summaries", labels);
  m_forwarded_bytes_total_ =
      &reg.counter("resmon_agg_forwarded_bytes_total",
                   "Encoded bytes written to the upstream link", labels);
  m_degraded_slots_total_ = &reg.counter(
      "resmon_agg_degraded_slots_total",
      "Forwarded slots whose shard barrier skipped a non-LIVE node", labels);
  m_status_frames_total_ =
      &reg.counter("resmon_agg_status_frames_total",
                   "Shard-status censuses sent upstream", labels);
  m_compaction_ratio_ = &reg.gauge(
      "resmon_agg_compaction_ratio",
      "Agent frames received downstream per frame sent upstream", labels);
  m_shard_nodes_ =
      &reg.gauge("resmon_agg_shard_nodes", "Nodes this shard fronts", labels);
  m_live_nodes_ =
      &reg.gauge("resmon_agg_live_nodes", "Owned nodes currently LIVE", labels);
  m_stale_nodes_ = &reg.gauge("resmon_agg_stale_nodes",
                              "Owned nodes currently STALE", labels);
  m_dead_nodes_ =
      &reg.gauge("resmon_agg_dead_nodes", "Owned nodes currently DEAD", labels);
  m_shard_nodes_->set(static_cast<double>(options_.num_nodes));
  m_live_nodes_->set(static_cast<double>(options_.num_nodes));
}

void Aggregator::log(const std::string& line) const {
  if (options_.log_sink) {
    options_.log_sink("shard " + std::to_string(options_.shard) + ": " + line);
  }
}

void Aggregator::connect_upstream() {
  if (upstream_.connected()) return;
  upstream_.connect();
  log("upstream link established");
}

void Aggregator::forward(const std::vector<std::uint8_t>& bytes) {
  if (upstream_.deliver(bytes)) log("upstream link re-established");
  m_forwarded_bytes_total_->inc(bytes.size());
}

void Aggregator::update_gauges() {
  m_live_nodes_->set(static_cast<double>(live_nodes()));
  m_stale_nodes_->set(static_cast<double>(downstream_.stale_nodes()));
  m_dead_nodes_->set(static_cast<double>(downstream_.dead_nodes()));
  // Frames in (agent hellos, measurements, heartbeats) per frame out
  // (summaries + censuses): the tier's fan-in leverage. 0 until the first
  // upstream frame.
  const std::uint64_t out = forwarded_slots() + status_frames();
  if (out > 0) {
    m_compaction_ratio_->set(
        static_cast<double>(downstream_.frames_received()) /
        static_cast<double>(out));
  }
}

bool Aggregator::forward_slot(std::size_t t, int timeout_ms) {
  std::optional<std::vector<transport::MeasurementMessage>> slot =
      downstream_.collect_slot(t, timeout_ms);
  if (!slot) {
    update_gauges();  // keep staleness gauges fresh across barrier retries
    return false;
  }
  // The shard's own degradation verdict for exactly this slot: the delta of
  // the downstream counter across the collect_slot call.
  const std::uint64_t degraded =
      downstream_.degraded_slots() - degraded_slots_baseline_;
  degraded_slots_baseline_ = downstream_.degraded_slots();

  wire::SlotSummaryFrame summary{
      .shard = static_cast<std::uint32_t>(options_.shard),
      .step = static_cast<std::uint64_t>(t),
      .degraded = static_cast<std::uint32_t>(degraded),
      .num_resources = static_cast<std::uint32_t>(options_.num_resources),
      .measurements = std::move(*slot)};
  forward(wire::encode(summary));
  m_forwarded_slots_total_->inc();
  m_forwarded_measurements_total_->inc(summary.measurements.size());
  if (degraded > 0) m_degraded_slots_total_->inc();
  if (options_.status_every_slots > 0 &&
      forwarded_slots() % options_.status_every_slots == 0) {
    send_status();
  }
  update_gauges();
  return true;
}

void Aggregator::send_status() {
  const wire::ShardStatusFrame status{
      .shard = static_cast<std::uint32_t>(options_.shard),
      .live = static_cast<std::uint32_t>(live_nodes()),
      .stale = static_cast<std::uint32_t>(downstream_.stale_nodes()),
      .dead = static_cast<std::uint32_t>(downstream_.dead_nodes())};
  forward(wire::encode(status));
  m_status_frames_total_->inc();
  update_gauges();
}

}  // namespace resmon::agg
