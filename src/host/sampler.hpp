// HostSampler: per-interval resource-utilization measurements for a real
// host (or one watched process tree), read from procfs.
//
// Each sample() produces the same d = 4 normalized vector the synthetic
// traces produce — [cpu, memory, io, net], every component in [0, 1] — so
// live host data flows through the unchanged adaptive-transmission ->
// clustering -> forecasting pipeline (cctools' resource_monitor is the
// model; see SNIPPETS.md §1-2 and DESIGN.md "Host collection").
//
// Determinism: sample() takes its timestamp as a parameter and reads files
// only through the injected ProcfsSource, so given identical (file
// contents, timestamps) it is a pure function — unit tests drive it from
// FakeProcfs fixtures with manual clocks and never touch the live kernel.
// The only wall-clock reads live in clock.cpp (lint-allowlisted) and in
// the callers that pass `now_ms`.
//
// Counter hygiene: any cumulative counter that moves backwards (jiffy or
// byte-counter wrap, a reset device) yields a zero rate for that interval
// and increments resmon_host_counter_wraps_total — never a huge bogus
// spike. A zero-length interval likewise yields zero rates instead of a
// division by zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host/parsers.hpp"
#include "host/procfs.hpp"
#include "obs/metrics.hpp"

namespace resmon::host {

struct HostSamplerOptions {
  /// Root PIDs to watch; empty = whole-host sampling. Every live
  /// descendant of a root is included, so `--pid self` covers a whole
  /// bench fleet forked from one process.
  std::vector<std::uint64_t> watch_pids;

  /// Bytes per page for statm RSS accounting (sysconf(_SC_PAGESIZE) in
  /// production; fixed in tests for determinism).
  std::uint64_t page_size = 4096;

  /// Where operators read the resmon_host_* families, registered eagerly
  /// at construction. nullptr = the sampler counts into a private registry
  /// (samples_taken() reads resmon_host_samples_total either way).
  obs::MetricsRegistry* metrics = nullptr;
};

class HostSampler {
 public:
  /// Resource vector layout, matching trace::kCpu / trace::kMemory for the
  /// first two components.
  static constexpr std::size_t kNumResources = 4;
  static std::string resource_name(std::size_t resource);

  HostSampler(const ProcfsSource& procfs, HostSamplerOptions options);

  /// Take one sample at monotonic time `now_ms`. The first call
  /// establishes counter baselines: level resources (memory) are real,
  /// rate resources (cpu, io, net) are 0. Throws HostParseError (naming
  /// file, line and field) on malformed content and resmon::Error when a
  /// required host-level file is missing; both increment
  /// resmon_host_parse_errors_total first. Vanished per-pid files are
  /// skipped silently — processes exit mid-sample all the time.
  std::vector<double> sample(std::uint64_t now_ms);

  /// Record one wall-clock sampling latency into the
  /// resmon_host_sample_latency_ms histogram (called by the live source
  /// wrapper; replay never does).
  void observe_latency_ms(double ms);

  std::uint64_t samples_taken() const { return samples_total_->value(); }

 private:
  std::vector<double> sample_impl(std::uint64_t now_ms);
  std::string must_read(const std::string& path) const;
  std::uint64_t counter_delta(std::uint64_t prev, std::uint64_t cur);

  const ProcfsSource& procfs_;
  HostSamplerOptions options_;
  obs::RegistryRef registry_;  ///< options_.metrics, else a private one

  // Previous-sample counter baselines (valid once have_prev_).
  bool have_prev_ = false;
  std::uint64_t prev_ms_ = 0;
  std::uint64_t prev_cpu_busy_ = 0;
  std::uint64_t prev_cpu_total_ = 0;
  std::uint64_t prev_tree_jiffies_ = 0;
  std::uint64_t prev_io_bytes_ = 0;
  std::uint64_t prev_disk_sectors_ = 0;
  std::uint64_t prev_net_bytes_ = 0;

  // Series in registry_, registered by the constructor (never nullptr).
  obs::Counter* samples_total_ = nullptr;
  obs::Counter* parse_errors_total_ = nullptr;
  obs::Counter* counter_wraps_total_ = nullptr;
  obs::Histogram* sample_latency_ms_ = nullptr;
  std::vector<obs::Gauge*> utilization_;  ///< one per resource
  obs::Gauge* watched_processes_ = nullptr;
};

}  // namespace resmon::host
