// Scaling benchmark for the two-tier collection topology: slots/sec and
// p99 slot-barrier latency of a single-tier controller vs a root + 4
// aggregators, at several fleet sizes over real loopback TCP.
//
// This is the measurement behind DESIGN.md "Hierarchical collection": the
// root of a two-tier fleet touches one compacted summary per shard per
// slot instead of one frame per agent, so its per-slot work stops growing
// with the agent count. Results persist into BENCH_scaling.json (merged
// by harness, see bench::BenchJson). Engineering hygiene, not a paper
// artifact.
//
// Flags: --nodes N (single size instead of the default 16/48/96 sweep),
// --slots, --shards, --seed, --json PATH, --json-run LABEL (append a
// timestamped history entry for this run to the JSON sink).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "agg/aggregator.hpp"
#include "bench_util.hpp"
#include "collect/fleet_collector.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"

namespace {

using namespace resmon;

/// Wall-clock timings of one topology run.
struct RunStats {
  double slots_per_sec = 0.0;
  double mean_barrier_ms = 0.0;
  double p99_barrier_ms = 0.0;
};

std::unique_ptr<net::Agent> make_agent(std::uint16_t port, std::size_t node,
                                       std::size_t num_resources) {
  net::AgentOptions opt;
  opt.upstream.port = port;
  opt.node = static_cast<std::uint32_t>(node);
  opt.num_resources = static_cast<std::uint32_t>(num_resources);
  return std::make_unique<net::Agent>(
      opt,
      collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0)());
}

/// Connect `count` agents (nodes [first, first+count)) against `port`,
/// pumping `collector` until every hello completed.
std::vector<std::unique_ptr<net::Agent>> connect_fleet(
    net::Controller& collector, std::uint16_t port, std::size_t first,
    std::size_t count, std::size_t num_resources) {
  std::vector<std::unique_ptr<net::Agent>> agents(count);
  std::vector<std::thread> connectors;
  connectors.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    agents[i] = make_agent(port, first + i, num_resources);
    connectors.emplace_back([&, i] { agents[i]->connect(); });
  }
  if (!collector.wait_for_agents(count, 30000)) {
    throw std::runtime_error("scaling_tiers: fleet handshakes timed out");
  }
  for (std::thread& th : connectors) th.join();
  return agents;
}

RunStats stats_from(const std::vector<double>& barrier_ms, double total_s,
                    std::size_t slots) {
  std::vector<double> sorted = barrier_ms;
  std::sort(sorted.begin(), sorted.end());
  RunStats s;
  s.slots_per_sec = total_s > 0 ? static_cast<double>(slots) / total_s : 0;
  double sum = 0;
  for (const double v : sorted) sum += v;
  s.mean_barrier_ms = sorted.empty() ? 0 : sum / sorted.size();
  s.p99_barrier_ms =
      sorted.empty() ? 0 : sorted[(sorted.size() * 99) / 100];
  return s;
}

/// One fleet of `n` agents feeding a single-tier controller for `slots`
/// lock-step slots; the barrier latency is collect_slot's wall time.
RunStats run_single_tier(const trace::InMemoryTrace& trace,
                         std::size_t slots) {
  const std::size_t n = trace.num_nodes();
  net::ControllerOptions copt;
  copt.num_nodes = n;
  copt.num_resources = trace.num_resources();
  net::Controller controller(net::Socket::listen_tcp("127.0.0.1", 0), copt);
  auto agents = connect_fleet(controller, controller.port(), 0, n,
                              trace.num_resources());

  using clock = std::chrono::steady_clock;
  std::vector<double> barrier_ms;
  barrier_ms.reserve(slots);
  const auto run_start = clock::now();
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::size_t node = 0; node < n; ++node) {
      agents[node]->observe(t, trace.measurement(node, t));
    }
    const auto barrier_start = clock::now();
    auto messages = controller.collect_slot(t, 30000);
    if (!messages.has_value()) {
      throw std::runtime_error("scaling_tiers: single-tier barrier stuck");
    }
    barrier_ms.push_back(
        std::chrono::duration<double, std::milli>(clock::now() -
                                                  barrier_start)
            .count());
  }
  const double total_s =
      std::chrono::duration<double>(clock::now() - run_start).count();
  return stats_from(barrier_ms, total_s, slots);
}

/// The same fleet behind `shards` aggregators forwarding summaries to a
/// root; the barrier latency covers every shard forward plus the root's
/// own collect_slot (the full slot is done only then).
RunStats run_two_tier(const trace::InMemoryTrace& trace, std::size_t slots,
                      std::size_t shards) {
  const std::size_t n = trace.num_nodes();
  net::ControllerOptions copt;
  copt.num_nodes = n;
  copt.num_resources = trace.num_resources();
  copt.num_shards = shards;
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copt);

  std::vector<std::unique_ptr<agg::Aggregator>> aggs;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const agg::ShardRange range = agg::shard_range(n, shards, shard);
    agg::AggregatorOptions aopt;
    aopt.shard = shard;
    aopt.first_node = range.first_node;
    aopt.num_nodes = range.num_nodes;
    aopt.num_resources = trace.num_resources();
    aopt.upstream.port = root.port();
    aggs.push_back(std::make_unique<agg::Aggregator>(
        net::Socket::listen_tcp("127.0.0.1", 0), aopt));
    // Pump the root until the connector thread reports the shard hello
    // done (its flag, not the aggregator's own state, which it is writing).
    std::atomic<bool> done{false};
    std::thread connector([&] {
      aggs.back()->connect_upstream();
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) root.pump_idle(10);
    connector.join();
  }

  std::vector<std::vector<std::unique_ptr<net::Agent>>> fleets;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const agg::ShardRange range = agg::shard_range(n, shards, shard);
    fleets.push_back(connect_fleet(aggs[shard]->downstream(),
                                   aggs[shard]->port(), range.first_node,
                                   range.num_nodes, trace.num_resources()));
  }

  using clock = std::chrono::steady_clock;
  std::vector<double> barrier_ms;
  barrier_ms.reserve(slots);
  const auto run_start = clock::now();
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const agg::ShardRange range = agg::shard_range(n, shards, shard);
      for (std::size_t i = 0; i < range.num_nodes; ++i) {
        fleets[shard][i]->observe(
            t, trace.measurement(range.first_node + i, t));
      }
    }
    const auto barrier_start = clock::now();
    for (auto& aggregator : aggs) {
      if (!aggregator->forward_slot(t, 30000)) {
        throw std::runtime_error("scaling_tiers: shard barrier stuck");
      }
    }
    auto messages = root.collect_slot(t, 30000);
    if (!messages.has_value()) {
      throw std::runtime_error("scaling_tiers: root barrier stuck");
    }
    barrier_ms.push_back(
        std::chrono::duration<double, std::milli>(clock::now() -
                                                  barrier_start)
            .count());
  }
  const double total_s =
      std::chrono::duration<double>(clock::now() - run_start).count();
  return stats_from(barrier_ms, total_s, slots);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    bench::banner("scaling_tiers",
                  "slots/sec and p99 slot-barrier latency, single-tier "
                  "controller vs root + aggregators, over loopback TCP");

    const std::size_t slots =
        static_cast<std::size_t>(args.get_int("slots", 40));
    const std::size_t shards =
        static_cast<std::size_t>(args.get_int("shards", 4));
    std::vector<std::size_t> sizes{16, 48, 96};
    if (args.has("nodes")) {
      sizes = {static_cast<std::size_t>(args.get_int("nodes", 16))};
    }

    Table table({"nodes", "tiers", "slots_per_sec", "mean_barrier_ms",
                 "p99_barrier_ms"},
                3);
    bench::BenchJson sink("resmon-scaling", "scaling_tiers");
    for (const std::size_t n : sizes) {
      trace::SyntheticProfile profile = trace::profile_by_name("google");
      profile.num_nodes = n;
      profile.num_steps = slots;
      const trace::InMemoryTrace trace = trace::generate(
          profile, static_cast<std::uint64_t>(args.get_int("seed", 1)));

      const RunStats one = run_single_tier(trace, slots);
      const RunStats two = run_two_tier(trace, slots, shards);
      table.add_row({static_cast<double>(n), 1.0, one.slots_per_sec,
                     one.mean_barrier_ms, one.p99_barrier_ms});
      table.add_row({static_cast<double>(n), 2.0, two.slots_per_sec,
                     two.mean_barrier_ms, two.p99_barrier_ms});
      for (const auto& [tiers, stats] :
           {std::pair<int, const RunStats&>{1, one}, {2, two}}) {
        sink.add("nodes=" + std::to_string(n) +
                     "/tiers=" + std::to_string(tiers),
                 {{"nodes", static_cast<double>(n)},
                  {"tiers", static_cast<double>(tiers)},
                  {"shards", tiers == 2 ? static_cast<double>(shards) : 0.0},
                  {"slots", static_cast<double>(slots)},
                  {"slots_per_sec", stats.slots_per_sec},
                  {"mean_barrier_ms", stats.mean_barrier_ms},
                  {"p99_barrier_ms", stats.p99_barrier_ms}});
      }
    }
    bench::emit(table, args);
    sink.write(args.get("json", "BENCH_scaling.json"),
               args.get("json-run", ""));
    std::cout << "\np99_barrier_ms = 99th percentile wall time from the "
                 "last observe to the slot fully collected at the top "
                 "tier.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "scaling_tiers: " << e.what() << "\n";
    return 1;
  }
}
