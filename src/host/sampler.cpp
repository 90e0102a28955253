#include "host/sampler.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace resmon::host {

namespace {

constexpr std::size_t kCpu = 0;
constexpr std::size_t kMemory = 1;
constexpr std::size_t kIo = 2;
constexpr std::size_t kNet = 3;

constexpr std::uint64_t kSectorBytes = 512;

/// Byte rates map to utilization 1.0 at these full-scale values (~200 MB/s
/// of disk IO, one saturated GbE link). Anything beyond full scale clamps
/// to 1.
constexpr double kIoFullScale = 200e6;
constexpr double kNetFullScale = 125e6;

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

std::string HostSampler::resource_name(std::size_t resource) {
  switch (resource) {
    case kCpu:
      return "cpu";
    case kMemory:
      return "memory";
    case kIo:
      return "io";
    case kNet:
      return "net";
    default:
      throw InvalidArgument("HostSampler: resource index out of range");
  }
}

HostSampler::HostSampler(const ProcfsSource& procfs,
                         HostSamplerOptions options)
    : procfs_(procfs),
      options_(std::move(options)),
      registry_(options_.metrics) {
  RESMON_REQUIRE(options_.page_size > 0, "page_size must be positive");
  obs::MetricsRegistry& m = *registry_;
  samples_total_ = &m.counter("resmon_host_samples_total",
                              "Host measurement vectors produced");
  parse_errors_total_ =
      &m.counter("resmon_host_parse_errors_total",
                 "Samples aborted by malformed or missing procfs content");
  counter_wraps_total_ = &m.counter(
      "resmon_host_counter_wraps_total",
      "Cumulative counters that moved backwards (wrap/reset); the "
      "affected interval reports a zero rate instead of a spike");
  sample_latency_ms_ = &m.histogram(
      "resmon_host_sample_latency_ms",
      "Wall-clock cost of one procfs sampling pass (live sources only)",
      obs::duration_ms_buckets());
  utilization_.reserve(kNumResources);
  for (std::size_t r = 0; r < kNumResources; ++r) {
    utilization_.push_back(
        &m.gauge("resmon_host_utilization",
                 "Most recent normalized utilization per resource",
                 {{"resource", resource_name(r)}}));
  }
  watched_processes_ = &m.gauge(
      "resmon_host_watched_processes",
      "Processes in the watched tree at the last sample (0 = whole host)");
}

std::string HostSampler::must_read(const std::string& path) const {
  std::optional<std::string> contents = procfs_.read(path);
  if (!contents.has_value()) {
    throw Error("host sampler: required procfs file missing: " + path);
  }
  return *std::move(contents);
}

std::uint64_t HostSampler::counter_delta(std::uint64_t prev,
                                         std::uint64_t cur) {
  if (cur < prev) {
    counter_wraps_total_->inc();
    return 0;
  }
  return cur - prev;
}

std::vector<double> HostSampler::sample(std::uint64_t now_ms) {
  try {
    std::vector<double> x = sample_impl(now_ms);
    samples_total_->inc();
    for (std::size_t r = 0; r < kNumResources; ++r) {
      utilization_[r]->set(x[r]);
    }
    return x;
  } catch (const Error&) {
    parse_errors_total_->inc();
    throw;
  }
}

void HostSampler::observe_latency_ms(double ms) {
  sample_latency_ms_->observe(ms);
}

std::vector<double> HostSampler::sample_impl(std::uint64_t now_ms) {
  const bool whole_host = options_.watch_pids.empty();

  const CpuJiffies cpu = parse_proc_stat(must_read("stat"), "stat");
  const MemInfo mem = parse_meminfo(must_read("meminfo"), "meminfo");
  const NetDevTotals net = parse_net_dev(must_read("net/dev"), "net/dev");

  // Watched process tree: read every /proc/<pid>/stat once, then follow
  // ppid edges from the watch roots. Files that vanish between the
  // directory scan and the read are exit races, not errors.
  std::uint64_t tree_jiffies = 0;
  std::uint64_t tree_rss_bytes = 0;
  std::uint64_t tree_io_bytes = 0;
  std::size_t tree_size = 0;
  if (!whole_host) {
    std::map<std::uint64_t, std::vector<std::uint64_t>> children;
    std::map<std::uint64_t, std::uint64_t> jiffies_of;
    for (const std::uint64_t pid : procfs_.pids()) {
      const std::string path = std::to_string(pid) + "/stat";
      const std::optional<std::string> contents = procfs_.read(path);
      if (!contents.has_value()) continue;
      const PidStat st = parse_pid_stat(*contents, path);
      children[st.ppid].push_back(pid);
      jiffies_of[pid] = st.utime + st.stime;
    }
    std::vector<std::uint64_t> frontier;
    for (const std::uint64_t root : options_.watch_pids) {
      if (jiffies_of.find(root) != jiffies_of.end()) {
        frontier.push_back(root);
      }
    }
    std::vector<std::uint64_t> members;
    while (!frontier.empty()) {
      const std::uint64_t pid = frontier.back();
      frontier.pop_back();
      if (std::find(members.begin(), members.end(), pid) != members.end()) {
        continue;
      }
      members.push_back(pid);
      const auto kids = children.find(pid);
      if (kids == children.end()) continue;
      frontier.insert(frontier.end(), kids->second.begin(),
                      kids->second.end());
    }
    tree_size = members.size();
    for (const std::uint64_t pid : members) {
      tree_jiffies += jiffies_of[pid];
      const std::string dir = std::to_string(pid);
      if (const auto statm = procfs_.read(dir + "/statm")) {
        tree_rss_bytes +=
            parse_statm_rss_pages(*statm, dir + "/statm") *
            options_.page_size;
      }
      if (const auto io = procfs_.read(dir + "/io")) {
        const PidIo pio = parse_pid_io(*io, dir + "/io");
        tree_io_bytes += pio.read_bytes + pio.write_bytes;
      }
    }
  }

  // Whole-host IO needs diskstats; a watched tree uses per-pid io files.
  std::uint64_t disk_sectors = 0;
  if (whole_host) {
    const DiskTotals disk =
        parse_diskstats(must_read("diskstats"), "diskstats");
    disk_sectors = disk.sectors_read + disk.sectors_written;
  }
  const std::uint64_t net_bytes = net.rx_bytes + net.tx_bytes;
  const std::uint64_t mem_total_bytes = mem.total_kb * 1024;

  std::vector<double> x(kNumResources, 0.0);

  // Memory is a level, not a rate: real from the very first sample.
  if (!whole_host) {
    x[kMemory] = clamp01(static_cast<double>(tree_rss_bytes) /
                         static_cast<double>(mem_total_bytes));
  } else {
    x[kMemory] = clamp01(
        static_cast<double>(mem.total_kb -
                            std::min(mem.available_kb, mem.total_kb)) /
        static_cast<double>(mem.total_kb));
  }

  if (have_prev_) {
    const std::uint64_t dt_ms = counter_delta(prev_ms_, now_ms);
    const std::uint64_t cpu_total_delta =
        counter_delta(prev_cpu_total_, cpu.total());
    const std::uint64_t cpu_busy_delta =
        counter_delta(prev_cpu_busy_, cpu.busy());
    if (cpu_total_delta > 0) {
      if (!whole_host) {
        const std::uint64_t tree_delta =
            counter_delta(prev_tree_jiffies_, tree_jiffies);
        x[kCpu] = clamp01(static_cast<double>(tree_delta) /
                          static_cast<double>(cpu_total_delta));
      } else {
        x[kCpu] = clamp01(static_cast<double>(cpu_busy_delta) /
                          static_cast<double>(cpu_total_delta));
      }
    }
    if (dt_ms > 0) {
      const double dt_s = static_cast<double>(dt_ms) / 1000.0;
      const std::uint64_t io_delta =
          whole_host
              ? counter_delta(prev_disk_sectors_, disk_sectors) *
                    kSectorBytes
              : counter_delta(prev_io_bytes_, tree_io_bytes);
      x[kIo] = clamp01(static_cast<double>(io_delta) / dt_s /
                       kIoFullScale);
      const std::uint64_t net_delta =
          counter_delta(prev_net_bytes_, net_bytes);
      x[kNet] = clamp01(static_cast<double>(net_delta) / dt_s /
                        kNetFullScale);
    }
  }

  have_prev_ = true;
  prev_ms_ = now_ms;
  prev_cpu_busy_ = cpu.busy();
  prev_cpu_total_ = cpu.total();
  prev_tree_jiffies_ = tree_jiffies;
  prev_io_bytes_ = tree_io_bytes;
  prev_disk_sectors_ = disk_sectors;
  prev_net_bytes_ = net_bytes;

  watched_processes_->set(static_cast<double>(tree_size));
  return x;
}

}  // namespace resmon::host
