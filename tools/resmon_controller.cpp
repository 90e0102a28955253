// resmon_controller — the central node, serving agents over TCP.
//
// Listens for N resmon_agent connections, then runs the paper's slot loop:
// each slot it drains the agents' measurement frames into the monitoring
// pipeline and advances clustering + forecasting.
// Exits 0 iff the central store became complete and the forecast RMSE is
// finite — the localhost smoke test in CI keys off that.
//
//   resmon_controller --port 0 --nodes 8 --steps 200 --dataset alibaba
//       --seed 1 [--k 3] [--model hold] [--threads 1]
//       [--resources N] [--stale-after-ms MS] [--dead-after-ms MS]
//       [--fault-spec SPEC]
//       [--shards M] [--metrics-port 0] [--metrics-linger-ms 2000]
//       [--metrics-out file.prom] [--trace-out file.jsonl] [--version]
//
// --stale-after-ms/--dead-after-ms enable graceful degradation: a node
// silent that long is marked STALE (the slot barrier stops waiting for it;
// its last stored sample feeds clustering and forecasting) respectively
// DEAD (evicted; a reconnect rejoins it). --fault-spec applies the spec's
// partition windows on the inbound side, discarding frames from the listed
// nodes during those slots.
//
// With --port 0 the kernel picks a free port; the chosen one is printed as
//   resmon_controller listening on 127.0.0.1:PORT
// so wrapper scripts can pass it to the agents. --resources N sizes the
// pipeline and the wire dimension for agents that sample live hosts
// instead of the shared trace (resmon_agent --source procfs is d = 4); no
// trace is built, and the h=1 forecasts are scored against an N x d zero
// matrix, so only RMSE finiteness is meaningful.
// --metrics-port opens a
// second listener serving the live Prometheus exposition (printed as
//   resmon_controller metrics endpoint on 127.0.0.1:PORT
// — a distinct phrasing so port-parsing scripts cannot confuse the two);
// --metrics-linger-ms keeps the endpoint answering scrapes after the slot
// loop, returning early once one scrape lands. --shards M runs the
// two-tier root: M resmon_aggregator processes front the agents and the
// controller consumes their compacted slot summaries instead of direct
// agent frames (README "Networked quickstart", DESIGN.md "Hierarchical
// collection").
#include <cmath>
#include <iostream>
#include <optional>

#include "common/cli.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "faultnet/agent_hook.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "net_common.hpp"
#include "obs/export.hpp"
#include "sim/evaluate.hpp"

using namespace resmon;

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (tools::handle_version(args, "resmon_controller")) return 0;
    std::cout << tools::version_line("resmon_controller") << '\n'
              << std::flush;
    const std::size_t slots = tools::run_slots(args);
    const std::string host = args.get("host", "127.0.0.1");
    // --resources N sizes the pipeline for agents that do not read the
    // shared synthetic trace (resmon_agent --source procfs is d = 4). The
    // controller has no oracle for live hosts, so it builds no trace and
    // scores against a zero matrix — RMSE stays finite, which is all the
    // RESULT line asserts.
    const std::optional<trace::InMemoryTrace> truth =
        args.has("resources")
            ? std::nullopt
            : std::optional<trace::InMemoryTrace>(tools::build_trace(args));
    const std::size_t nodes =
        truth ? truth->num_nodes()
              : static_cast<std::size_t>(args.get_int("nodes", 1));
    const std::size_t resources =
        truth ? truth->num_resources()
              : static_cast<std::size_t>(args.get_int("resources", 4));

    obs::MetricsRegistry registry;
    obs::TraceBuffer trace_events;

    net::ControllerOptions copts;
    copts.num_nodes = nodes;
    copts.num_resources = resources;
    copts.metrics = &registry;
    copts.stale_after_ms =
        static_cast<int>(args.get_int("stale-after-ms", 0));
    copts.dead_after_ms = static_cast<int>(args.get_int("dead-after-ms", 0));
    // --shards M enables the two-tier root: M resmon_aggregator processes
    // connect with shard hellos and forward compacted slot summaries.
    copts.num_shards = static_cast<std::size_t>(args.get_int("shards", 0));
    copts.log_sink = [](const std::string& line) {
      std::cerr << "resmon_controller: " << line << "\n";
    };
    if (args.has("fault-spec")) {
      copts.block_hook = faultnet::make_controller_block_hook(
          faultnet::FaultSpec::parse(args.get("fault-spec", "")), &registry);
    }
    net::Controller controller(
        net::Socket::listen_tcp(
            host, static_cast<std::uint16_t>(args.get_int("port", 0))),
        copts);
    std::cout << "resmon_controller listening on " << host << ":"
              << controller.port() << '\n'
              << std::flush;  // flush: scripts parse this

    if (args.has("metrics-port")) {
      controller.serve_metrics(net::Socket::listen_tcp(
          host, static_cast<std::uint16_t>(args.get_int("metrics-port", 0))));
      std::cout << "resmon_controller metrics endpoint on " << host << ":"
                << controller.metrics_port() << '\n'
                << std::flush;
    }

    const int wait_ms = static_cast<int>(args.get_int("wait-ms", 30000));
    if (copts.num_shards > 0 &&
        !controller.wait_for_shards(copts.num_shards, wait_ms)) {
      std::cerr << "resmon_controller: only " << controller.shards_seen()
                << "/" << copts.num_shards << " shards connected within "
                << wait_ms << " ms\n";
      return 1;
    }
    if (!controller.wait_for_agents(nodes, wait_ms)) {
      std::cerr << "resmon_controller: only " << controller.nodes_seen()
                << "/" << nodes << " agents connected within "
                << wait_ms << " ms\n";
      return 1;
    }
    if (copts.num_shards > 0) {
      std::cout << "all " << copts.num_shards << " shards connected ("
                << nodes << " nodes fronted)\n"
                << std::flush;
    } else {
      std::cout << "all " << nodes << " agents connected\n"
                << std::flush;
    }

    core::PipelineOptions popts;
    popts.num_clusters = static_cast<std::size_t>(args.get_int("k", 3));
    popts.forecaster =
        forecast::forecaster_kind_from_string(args.get("model", "hold"));
    popts.schedule = {
        .initial_steps =
            static_cast<std::size_t>(args.get_int("initial", 50)),
        .retrain_interval =
            static_cast<std::size_t>(args.get_int("retrain", 288))};
    popts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    popts.num_threads = args.get_threads();
    popts.metrics = &registry;
    popts.trace_events = &trace_events;
    core::MonitoringPipeline pipeline(nodes, resources, popts);

    const int slot_timeout_ms =
        static_cast<int>(args.get_int("slot-timeout-ms", 10000));
    for (std::size_t t = 0; t < slots; ++t) {
      auto messages = controller.collect_slot(t, slot_timeout_ms);
      if (!messages.has_value()) {
        std::cerr << "resmon_controller: slot " << t << " timed out ("
                  << controller.connected_agents() << " agents connected)\n";
        return 1;
      }
      pipeline.step_external(*messages);
    }

    // Keep the metrics endpoint live after the run so scrapers see the
    // final counter values; one completed scrape ends the linger early.
    const int linger_ms =
        static_cast<int>(args.get_int("metrics-linger-ms", 0));
    if (linger_ms > 0) {
      controller.pump_idle(linger_ms, controller.metrics_scrapes() + 1);
    }

    if (args.has("metrics-out")) {
      obs::write_metrics_file(args.get("metrics-out", ""), registry);
    }
    if (args.has("trace-out")) {
      obs::write_trace_file(args.get("trace-out", ""), trace_events);
    }

    const bool complete = pipeline.central_store().complete();
    const double rmse =
        truth ? sim::rmse_at(pipeline, *truth, 1)
              : core::rmse_step(Matrix(nodes, resources),
                                pipeline.forecast_all(1));
    const double freq =
        static_cast<double>(controller.frames_received()) /
        (static_cast<double>(slots) * static_cast<double>(nodes));
    std::cout << "slots processed:   " << slots << "\n"
              << "frames received:   " << controller.frames_received()
              << " (" << controller.bytes_received() << " bytes, "
              << freq << " frames/node/slot)\n"
              << "store complete:    " << (complete ? "yes" : "no") << "\n"
              << "forecast RMSE h=1: " << rmse << "\n";
    if (copts.num_shards > 0) {
      std::cout << "shard summaries:   " << controller.summaries_received()
                << " (" << controller.summary_measurements()
                << " measurements)\n";
    }
    if (copts.stale_after_ms > 0 || copts.block_hook) {
      std::cout << "degradation:       " << controller.stale_transitions()
                << " stale, " << controller.dead_transitions() << " dead, "
                << controller.rejoins() << " rejoins, "
                << controller.degraded_slots() << " degraded slots, "
                << controller.blocked_frames() << " blocked frames\n"
                << "node states:      ";
      for (std::size_t n = 0; n < nodes; ++n) {
        std::cout << " " << n << "="
                  << net::node_state_name(controller.node_state(n));
      }
      std::cout << "\n";
    }
    std::cout << "RESULT complete=" << (complete ? 1 : 0)
              << " rmse_finite=" << (std::isfinite(rmse) ? 1 : 0) << '\n'
              << std::flush;
    return complete && std::isfinite(rmse) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "resmon_controller: " << e.what() << "\n";
    return 1;
  }
}
