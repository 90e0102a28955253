// resmon_aggregator — the intermediate tier of a two-tier fleet, over TCP.
//
// Fronts one contiguous shard of resmon_agent processes: accepts their
// connections with the unchanged wire protocol, runs the LIVE/STALE/DEAD
// staleness machine locally, completes the shard's slot barrier each slot,
// and forwards a compacted kSlotSummary upstream to the root
// resmon_controller (which must run with --shards M). Heartbeats never
// leave the shard — the summary itself is the progress signal — so the
// root's connection count and frame rate stay flat as shards grow.
//
// The flags are kUsage below, printed to stderr (exit 2) on any other.
//
// The trace flags (--dataset/--nodes/--steps/--seed) must match the rest
// of the fleet: --nodes and --dataset determine the fleet size and
// dimensionality the shard announces upstream (no trace is generated, so
// --seed changes nothing here). The shard's node range is derived from
// --shard/--shards over --nodes (contiguous partition, same formula the
// scenario runner uses). Port announcements mirror resmon_controller:
//   resmon_aggregator listening on HOST:PORT
//   resmon_aggregator metrics endpoint on HOST:PORT
#include <iostream>
#include <string_view>

#include "agg/aggregator.hpp"
#include "common/cli.hpp"
#include "net/socket.hpp"
#include "net_common.hpp"
#include "obs/export.hpp"

using namespace resmon;

namespace {

// --seed is accepted so one set of trace flags serves the whole fleet; the
// shard's N and d do not depend on it.
constexpr std::string_view kFlags[] = {
    "shard", "shards", "upstream-port", "upstream-host", "port", "host",
    "nodes", "steps", "dataset", "seed", "stale-after-ms", "dead-after-ms",
    "status-every", "wait-ms", "slot-timeout-ms", "metrics-port",
    "metrics-linger-ms", "metrics-out", "version"};

constexpr const char* kUsage =
    "usage: resmon_aggregator --upstream-port PORT [--upstream-host HOST]\n"
    "         [--shard 0] [--shards 1] [--port 0] [--host 127.0.0.1]\n"
    "         [--nodes 8] [--steps 200] [--dataset alibaba] [--seed S]\n"
    "         [--stale-after-ms MS] [--dead-after-ms MS] [--status-every 8]\n"
    "         [--wait-ms 30000] [--slot-timeout-ms 10000]\n"
    "         [--metrics-port PORT] [--metrics-linger-ms MS]\n"
    "         [--metrics-out FILE.prom] [--version]\n";

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (!tools::known_flags_only(args, "resmon_aggregator", kFlags,
                                 kUsage)) {
      return 2;
    }
    if (tools::handle_version(args, "resmon_aggregator")) return 0;
    std::cout << tools::version_line("resmon_aggregator") << '\n'
              << std::flush;
    // The fleet's N and d, as build_trace would size the trace, without
    // generating it.
    const trace::SyntheticProfile fleet = tools::run_profile(args);
    const std::size_t slots = tools::run_slots(args);
    const std::string host = args.get("host", "127.0.0.1");
    const std::size_t shard =
        static_cast<std::size_t>(args.get_int("shard", 0));
    const std::size_t num_shards =
        static_cast<std::size_t>(args.get_int("shards", 1));
    if (shard >= num_shards) {
      std::cerr << "resmon_aggregator: --shard " << shard
                << " out of range (--shards " << num_shards << ")\n";
      return 2;
    }
    if (!args.has("upstream-port")) {
      std::cerr << "resmon_aggregator: --upstream-port is required\n";
      return 2;
    }
    const agg::ShardRange range =
        agg::shard_range(fleet.num_nodes, num_shards, shard);
    if (range.num_nodes == 0) {
      std::cerr << "resmon_aggregator: --shard " << shard << " of --shards "
                << num_shards << " over --nodes " << fleet.num_nodes
                << " has no nodes\n";
      return 2;
    }

    obs::MetricsRegistry registry;

    agg::AggregatorOptions opts;
    opts.shard = shard;
    opts.first_node = range.first_node;
    opts.num_nodes = range.num_nodes;
    opts.num_resources = fleet.num_resources;
    opts.upstream.host = args.get("upstream-host", host);
    opts.upstream.port = tools::port_flag(args, "upstream-port");
    opts.stale_after_ms =
        static_cast<int>(args.get_int("stale-after-ms", 0));
    opts.dead_after_ms = static_cast<int>(args.get_int("dead-after-ms", 0));
    opts.status_every_slots =
        static_cast<std::size_t>(args.get_int("status-every", 8));
    // One registry for both the resmon_agg_* families and the internal
    // controller's resmon_net_* families, so a single /metrics scrape sees
    // the whole shard.
    opts.metrics = &registry;
    opts.net_metrics = &registry;
    opts.log_sink = [](const std::string& line) {
      std::cerr << "resmon_aggregator: " << line << "\n";
    };

    agg::Aggregator aggregator(
        net::Socket::listen_tcp(
            host, tools::port_flag(args, "port")),
        opts);
    net::Controller& downstream = aggregator.downstream();
    std::cout << "resmon_aggregator listening on " << host << ":"
              << downstream.port() << '\n'
              << std::flush;  // flush: scripts parse this

    if (args.has("metrics-port")) {
      downstream.serve_metrics(net::Socket::listen_tcp(
          host, tools::port_flag(args, "metrics-port")));
      std::cout << "resmon_aggregator metrics endpoint on " << host << ":"
                << downstream.metrics_port() << '\n'
                << std::flush;
    }

    aggregator.connect_upstream();

    const int wait_ms = static_cast<int>(args.get_int("wait-ms", 30000));
    if (!downstream.wait_for_agents(range.num_nodes, wait_ms)) {
      std::cerr << "resmon_aggregator: only " << downstream.nodes_seen()
                << "/" << range.num_nodes << " shard agents connected within "
                << wait_ms << " ms\n";
      return 1;
    }
    std::cout << "all " << range.num_nodes << " shard agents connected\n"
              << std::flush;

    const int slot_timeout_ms =
        static_cast<int>(args.get_int("slot-timeout-ms", 10000));
    for (std::size_t t = 0; t < slots; ++t) {
      if (!aggregator.forward_slot(t, slot_timeout_ms)) {
        std::cerr << "resmon_aggregator: slot " << t << " timed out ("
                  << downstream.connected_agents() << " agents connected)\n";
        return 1;
      }
    }
    aggregator.send_status();  // final census, so the root's gauges settle

    const int linger_ms =
        static_cast<int>(args.get_int("metrics-linger-ms", 0));
    if (linger_ms > 0) {
      downstream.pump_idle(linger_ms, downstream.metrics_scrapes() + 1);
    }
    if (args.has("metrics-out")) {
      obs::write_metrics_file(args.get("metrics-out", ""), registry);
    }

    std::cout << "shard " << shard << " nodes [" << range.first_node << ", "
              << range.first_node + range.num_nodes << ")\n"
              << "slots forwarded:   " << aggregator.forwarded_slots() << "/"
              << slots << " (" << aggregator.forwarded_measurements()
              << " measurements, " << aggregator.forwarded_bytes()
              << " bytes upstream)\n"
              << "frames received:   " << downstream.frames_received()
              << " (" << downstream.bytes_received() << " bytes, "
              << aggregator.compaction_ratio() << "x compaction)\n"
              << "degradation:       " << downstream.stale_transitions()
              << " stale, " << downstream.dead_transitions() << " dead, "
              << aggregator.degraded_slots_forwarded()
              << " degraded slots forwarded\n";
    const bool ok = aggregator.forwarded_slots() == slots;
    std::cout << "RESULT forwarded=" << (ok ? 1 : 0) << '\n' << std::flush;
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "resmon_aggregator: " << e.what() << "\n";
    return 1;
  }
}
