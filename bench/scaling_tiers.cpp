// Scaling benchmark for the two-tier collection topology: slots/sec and
// p99 slot-barrier latency of a single-tier controller vs a root + 4
// aggregators, at several fleet sizes over real loopback TCP.
//
// This is the measurement behind DESIGN.md "Hierarchical collection": the
// root of a two-tier fleet touches one compacted summary per shard per
// slot instead of one frame per agent, so its per-slot work stops growing
// with the agent count. Both topologies are one scenario::SocketFleet.
// Engineering hygiene, not a paper artifact.
//
// Flags: --nodes N (single size instead of the default 16/48/96 sweep),
// --slots, --shards, --seed, --csv PATH, --json PATH (merge the rows into
// PATH, e.g. the tracked BENCH_scaling.json; nothing is written without
// it), --json-run LABEL (also append a timestamped history entry). --help
// prints the flags; an unknown flag exits 2.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "collect/fleet_collector.hpp"
#include "scenario/socket_fleet.hpp"

namespace {

using namespace resmon;

/// Wall-clock timings of one topology run.
struct RunStats {
  double slots_per_sec = 0.0;
  double mean_barrier_ms = 0.0;
  double p99_barrier_ms = 0.0;
};

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

/// One fleet of the trace's agents in `shards` aggregators' hands (0 = a
/// single-tier controller) for `slots` lock-step slots. The barrier latency
/// is collect's wall time: every shard forward plus the root's own
/// collect_slot, since the full slot is done only then.
RunStats time_fleet(const trace::InMemoryTrace& trace, std::size_t slots,
                    std::size_t shards) {
  scenario::SocketFleet fleet(
      trace.num_nodes(), trace.num_resources(),
      {.shards = shards,
       .policy =
           collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0)});

  using clock = std::chrono::steady_clock;
  std::vector<double> barrier_ms;
  barrier_ms.reserve(slots);
  const auto run_start = clock::now();
  for (std::size_t t = 0; t < slots; ++t) {
    fleet.observe(t, trace);
    const auto barrier_start = clock::now();
    fleet.collect(t);
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

constexpr const char* kUsage =
    "usage: scaling_tiers [--nodes N] [--slots N] [--shards M] [--seed S]\n"
    "         [--json PATH [--json-run LABEL]] [--csv PATH]\n";

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (args.has("help")) {
      std::cout << kUsage;
      return 0;
    }
    constexpr std::string_view kFlags[] = {"nodes", "slots", "shards", "seed",
                                           "json", "json-run", "csv"};
    if (!bench::flags_ok(args, kFlags, kUsage)) {
      return 2;
    }
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

      const RunStats one = time_fleet(trace, slots, 0);
      const RunStats two = time_fleet(trace, slots, shards);
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
    bench::json_flags(args).write(sink);
    std::cout << "\np99_barrier_ms = 99th percentile wall time from the "
                 "last observe to the slot fully collected at the top "
                 "tier.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "scaling_tiers: " << e.what() << "\n";
    return 1;
  }
}
