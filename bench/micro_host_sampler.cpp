// Host-sampler microbenchmark: samples/sec of HostSampler over a
// realistic FakeProcfs tree (whole-host and watched-process-tree modes)
// plus the raw parse cost of the hot procfs text formats. Runs entirely
// against in-memory fixtures — no live-kernel reads — so the numbers
// measure our parsing and aggregation, not the kernel's seq_file cost.
// Engineering hygiene, not a paper artifact.
#include <benchmark/benchmark.h>

#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "capturing_reporter.hpp"
#include "host/parsers.hpp"
#include "host/procfs.hpp"
#include "host/sampler.hpp"

namespace {

using namespace resmon;

std::string stat_text(std::size_t cpus, std::uint64_t user) {
  std::ostringstream ss;
  ss << "cpu  " << user << " 120 3400 987654 210 0 340 0 0 0\n";
  for (std::size_t c = 0; c < cpus; ++c) {
    ss << "cpu" << c << " " << user / cpus
       << " 15 425 123456 26 0 42 0 0 0\n";
  }
  ss << "intr 123456789 0 0 0\nctxt 987654321\nbtime 1700000000\n"
     << "processes 54321\nprocs_running 3\nprocs_blocked 0\n";
  return ss.str();
}

std::string meminfo_text() {
  return "MemTotal:       32768000 kB\nMemFree:         4096000 kB\n"
         "MemAvailable:   16384000 kB\nBuffers:          512000 kB\n"
         "Cached:          8192000 kB\nSwapCached:            0 kB\n"
         "Active:         12000000 kB\nInactive:        6000000 kB\n";
}

std::string net_dev_text(std::size_t interfaces, std::uint64_t bytes) {
  std::ostringstream ss;
  ss << "Inter-|   Receive                |  Transmit\n"
     << " face |bytes    packets errs drop fifo frame compressed multicast|"
        "bytes    packets errs drop fifo colls carrier compressed\n"
     << "    lo: 123456 100 0 0 0 0 0 0 123456 100 0 0 0 0 0 0\n";
  for (std::size_t i = 0; i < interfaces; ++i) {
    ss << "  eth" << i << ": " << bytes
       << " 9999 0 0 0 0 0 0 " << bytes << " 9999 0 0 0 0 0 0\n";
  }
  return ss.str();
}

std::string diskstats_text(std::size_t disks, std::uint64_t sectors) {
  std::ostringstream ss;
  ss << "   7       0 loop0 99 0 999 0 99 0 999 0 0 0 0\n";
  for (std::size_t d = 0; d < disks; ++d) {
    ss << "   8      " << d * 16 << " sd" << static_cast<char>('a' + d)
       << " 10000 200 " << sectors << " 30000 5000 100 " << sectors
       << " 20000 0 40000 50000\n";
  }
  return ss.str();
}

std::string pid_stat_text(std::uint64_t pid, std::uint64_t ppid) {
  std::ostringstream ss;
  ss << pid << " (worker-" << pid << ") S " << ppid
     << " 1 1 0 -1 4194304 1000 0 12 0 540 230 0 0 20 0 4 0 12345 "
        "104857600 4096 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 "
        "0 0 0 0 0 0\n";
  return ss.str();
}

/// A whole-host fixture shaped like a real mid-size box, with `procs`
/// watchable processes parented under pid 100.
host::FakeProcfs make_fixture(std::size_t procs, std::uint64_t tick) {
  host::FakeProcfs fs;
  fs.set("stat", stat_text(8, 400000 + 100 * tick));
  fs.set("meminfo", meminfo_text());
  fs.set("net/dev", net_dev_text(3, 1000000 + 9000 * tick));
  fs.set("diskstats", diskstats_text(2, 500000 + 800 * tick));
  for (std::size_t i = 0; i < procs; ++i) {
    const std::uint64_t pid = 100 + i;
    fs.set(std::to_string(pid) + "/stat",
           pid_stat_text(pid, i == 0 ? 1 : 100));
    fs.set(std::to_string(pid) + "/statm", "25600 6400 1200 300 0 5100 0\n");
    fs.set(std::to_string(pid) + "/io",
           "rchar: 999\nwchar: 999\nsyscr: 9\nsyscw: 9\n"
           "read_bytes: 1048576\nwrite_bytes: 524288\n"
           "cancelled_write_bytes: 0\n");
  }
  return fs;
}

void BM_HostSampleWholeHost(benchmark::State& state) {
  host::FakeProcfs fs = make_fixture(0, 1);
  host::HostSampler sampler(fs, {});
  std::uint64_t now = 1000;
  for (auto _ : state) {
    now += 100;
    benchmark::DoNotOptimize(sampler.sample(now));
  }
  state.SetItemsProcessed(state.iterations());  // samples/sec
}
BENCHMARK(BM_HostSampleWholeHost);

void BM_HostSampleProcessTree(benchmark::State& state) {
  const std::size_t procs = static_cast<std::size_t>(state.range(0));
  host::FakeProcfs fs = make_fixture(procs, 1);
  host::HostSamplerOptions opts;
  opts.watch_pids = {100};
  host::HostSampler sampler(fs, opts);
  std::uint64_t now = 1000;
  for (auto _ : state) {
    now += 100;
    benchmark::DoNotOptimize(sampler.sample(now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostSampleProcessTree)->Arg(8)->Arg(64)->Arg(512);

void BM_ParseProcStat(benchmark::State& state) {
  const std::string text =
      stat_text(static_cast<std::size_t>(state.range(0)), 400000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(host::parse_proc_stat(text, "stat"));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseProcStat)->Arg(8)->Arg(128);

void BM_ParsePidStat(benchmark::State& state) {
  const std::string text = pid_stat_text(4242, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(host::parse_pid_stat(text, "4242/stat"));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParsePidStat);

void BM_ParseNetDev(benchmark::State& state) {
  const std::string text =
      net_dev_text(static_cast<std::size_t>(state.range(0)), 123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(host::parse_net_dev(text, "net/dev"));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseNetDev)->Arg(3)->Arg(32);

void BM_ParseDiskstats(benchmark::State& state) {
  const std::string text =
      diskstats_text(static_cast<std::size_t>(state.range(0)), 500000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(host::parse_diskstats(text, "diskstats"));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseDiskstats)->Arg(2)->Arg(24);

}  // namespace

constexpr const char* kUsage =
    "usage: micro_host_sampler [--json PATH [--json-run LABEL]]\n"
    "         [--benchmark_filter=REGEX] [--benchmark_* ...]\n";

// Custom main instead of BENCHMARK_MAIN(): identical benchmark runs, and
// --json PATH merges the rows into PATH (e.g. the tracked BENCH_micro.json,
// next to the other micro harnesses' rows; nothing is written without it);
// --json-run LABEL also appends a history entry. An unknown flag exits 2.
int main(int argc, char** argv) {
  const resmon::bench::JsonFlags json =
      resmon::bench::take_json_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv) || !json.valid()) {
    std::cerr << kUsage;
    return 2;
  }
  resmon::bench::BenchJson sink("resmon-micro", "micro_host_sampler");
  resmon::bench::CapturingReporter reporter(&sink);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.write(sink);
  return 0;
}
