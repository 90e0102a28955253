// resmon_agent — one local node of the star topology, over TCP.
//
// Where the slot measurements come from is selected by --source:
//
//   trace   (default) rebuild the shared synthetic trace and read this
//           node's series from it — both ends must pass identical
//           --dataset/--nodes/--steps/--seed flags;
//   procfs  sample the live host (or one process tree) through the
//           src/host backend: d = 4 measurements [cpu, memory, io, net]
//           per --interval-ms, optionally persisted with --record FILE so
//           the run is replayable;
//   replay  re-run a --record file bit-identically: the recording loads as
//           a one-node trace and replays through collect::TraceSource,
//           zero clock or procfs reads, slot count taken from the
//           recording.
//
// Each slot the §V-A transmit policy decides whether to push the
// measurement to the controller; silent slots carry a heartbeat so the
// controller's slot barrier advances. Connection losses reconnect with
// bounded exponential backoff.
//
// The flags are kUsage below, printed to stderr (exit 2) on any other.
//
// The controller must be started with matching dimensions: the trace flags
// for --source trace, or --resources 4 (and the same --nodes/--steps) for
// procfs/replay agents. --fault-spec injects chaos into this agent's own
// uplink (grammar in faultnet/fault_spec.hpp); --start-step resumes a
// restarted agent mid-run (slots before S are skipped, as if the process
// was down for them); --slot-delay-ms paces the slot loop so wall-clock
// staleness policies have time to observe silence (procfs sources already
// pace themselves to --interval-ms).
#include <chrono>
#include <iostream>
#include <optional>
#include <string_view>
#include <thread>

#include "common/cli.hpp"
#include "faultnet/agent_hook.hpp"
#include "host/recording.hpp"
#include "live_sampling.hpp"
#include "net/agent.hpp"
#include "net_common.hpp"
#include "obs/export.hpp"

using namespace resmon;

namespace {

void list_sources() {
  std::cout
      << "resmon_agent measurement sources (--source NAME):\n"
         "  trace   shared synthetic trace; needs matching "
         "--dataset/--nodes/--steps/--seed on the controller (default)\n"
         "  procfs  live host sampling via --procfs-root (default /proc): "
         "d = 4 [cpu, memory, io, net], one sample per --interval-ms; "
         "--pid P|self watches a process tree instead of the whole host; "
         "--record FILE persists a replayable recording\n"
         "  replay  bit-identical re-run of a --record file "
         "(--replay FILE); no clock or procfs reads\n";
}

constexpr std::string_view kFlags[] = {
    "port", "host", "node", "nodes", "steps", "dataset", "seed", "policy",
    "b", "v0", "gamma", "clamp-queue", "source", "pid", "interval-ms",
    "procfs-root", "record", "replay", "fault-spec", "reconnect-attempts",
    "start-step", "slot-delay-ms", "metrics-out", "list-sources", "version"};

constexpr const char* kUsage =
    "usage: resmon_agent --port PORT [--host 127.0.0.1] [--node 0]\n"
    "         [--nodes 8] [--steps 200] [--dataset alibaba] [--seed 1]\n"
    "         [--policy adaptive] [--b 0.3] [--v0 1e-12] [--gamma 0.65]\n"
    "         [--clamp-queue] [--source trace|procfs|replay]\n"
    "         [--pid P|self] [--interval-ms 100] [--procfs-root /proc]\n"
    "         [--record FILE] [--replay FILE] [--fault-spec SPEC]\n"
    "         [--reconnect-attempts 8] [--start-step S] [--slot-delay-ms MS]\n"
    "         [--metrics-out FILE.prom] [--list-sources] [--version]\n";

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (!tools::known_flags_only(args, "resmon_agent", kFlags, kUsage)) {
      return 2;
    }
    if (tools::handle_version(args, "resmon_agent")) return 0;
    if (args.has("list-sources")) {
      list_sources();
      return 0;
    }
    std::cout << tools::version_line("resmon_agent") << '\n' << std::flush;
    const std::string source_name = args.get("source", "trace");
    const std::size_t node =
        static_cast<std::size_t>(args.get_int("node", 0));

    obs::MetricsRegistry registry;

    // Build the measurement source. `slots` and the wire dimension depend
    // on it: recordings carry their own length and d.
    std::size_t slots = tools::run_slots(args);
    std::size_t num_resources = 0;
    std::optional<trace::InMemoryTrace> trace;
    std::optional<collect::TraceSource> trace_source;
    std::optional<tools::LiveSampling> live;
    collect::MeasurementSource* source = nullptr;

    if (source_name == "trace") {
      trace.emplace(tools::build_trace(args));
      if (node >= trace->num_nodes()) {
        std::cerr << "resmon_agent: --node " << node
                  << " out of range (N = " << trace->num_nodes() << ")\n";
        return 2;
      }
      num_resources = trace->num_resources();
      source = &trace_source.emplace(*trace, node);
    } else if (source_name == "procfs") {
      try {
        live.emplace(args, /*default_interval_ms=*/100, registry);
      } catch (const InvalidArgument& e) {
        std::cerr << "resmon_agent: " << e.what() << "\n";
        return 2;
      }
      num_resources = host::HostSampler::kNumResources;
      source = &live->source();
    } else if (source_name == "replay") {
      if (!args.has("replay")) {
        std::cerr << "resmon_agent: --source replay needs --replay FILE\n";
        return 2;
      }
      // The recording is a one-node trace, whatever --node this agent
      // speaks for.
      trace.emplace(host::read_recording_file(args.get("replay", "")));
      slots = trace->num_steps();
      num_resources = trace->num_resources();
      source = &trace_source.emplace(*trace, 0);
    } else {
      std::cerr << "resmon_agent: unknown --source '" << source_name
                << "' (try --list-sources)\n";
      return 2;
    }

    if (!args.has("port")) {
      std::cerr << "resmon_agent: --port is required\n";
      return 2;
    }

    net::AgentOptions opts;
    opts.upstream.host = args.get("host", "127.0.0.1");
    opts.upstream.port = tools::port_flag(args, "port");
    opts.node = static_cast<std::uint32_t>(node);
    opts.num_resources = static_cast<std::uint32_t>(num_resources);
    opts.upstream.max_reconnect_attempts =
        static_cast<std::size_t>(args.get_int("reconnect-attempts", 8));
    opts.metrics = &registry;
    if (args.has("fault-spec")) {
      opts.frame_hook = faultnet::make_agent_fault_hook(
          faultnet::FaultSpec::parse(args.get("fault-spec", "")),
          opts.node, &registry);
    }
    net::Agent agent(opts, tools::make_policy(args));
    agent.connect();

    const std::size_t start =
        static_cast<std::size_t>(args.get_int("start-step", 0));
    const int slot_delay_ms =
        static_cast<int>(args.get_int("slot-delay-ms", 0));
    for (std::size_t t = start; t < slots; ++t) {
      agent.observe(t, source->measurement(t));
      if (slot_delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(slot_delay_ms));
      }
    }
    if (live.has_value()) live->finish();

    if (args.has("metrics-out")) {
      obs::write_metrics_file(args.get("metrics-out", ""), registry);
    }

    std::cout << "resmon_agent " << node << ": "
              << agent.measurements_sent() << "/" << slots
              << " measurements ("
              << agent.policy().actual_frequency() << " actual vs B = "
              << agent.policy().frequency_constraint() << "), "
              << agent.bytes_sent() << " bytes, " << agent.reconnects()
              << " reconnects";
    if (live.has_value()) {
      std::cout << ", " << live->samples_taken() << " host samples";
    }
    std::cout << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "resmon_agent: " << e.what() << "\n";
    return 1;
  }
}
