// resmon::host unit suite: every test drives the sampler, parsers,
// recording codec and sources from FakeProcfs fixtures and hand-advanced
// clocks — no live-kernel reads anywhere in ctest (DESIGN.md "Host
// collection"). The hostile-content cases double as the ASan+UBSan fodder
// the CI matrix runs: truncated files, counter wraps, zero-length
// intervals and corrupted recordings must all be *diagnosed*, never
// crash or silently misread.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "sim/driver.hpp"
#include "host/parsers.hpp"
#include "host/procfs.hpp"
#include "host/recording.hpp"
#include "host/sampler.hpp"
#include "host/source.hpp"
#include "obs/metrics.hpp"
#include "trace/loader.hpp"

namespace resmon {
namespace {

using host::FakeProcfs;
using host::HostParseError;
using host::HostSampler;
using host::HostSamplerOptions;

// ------------------------------------------------------------- fixtures

std::string stat_text(std::uint64_t user, std::uint64_t idle) {
  std::ostringstream ss;
  ss << "cpu  " << user << " 0 0 " << idle << " 0 0 0 0\n"
     << "cpu0 0 0 0 0 0 0 0 0\n"
     << "cpu1 0 0 0 0 0 0 0 0\n"
     << "intr 12345\n";
  return ss.str();
}

std::string meminfo_text(std::uint64_t total_kb, std::uint64_t avail_kb) {
  std::ostringstream ss;
  ss << "MemTotal:       " << total_kb << " kB\n"
     << "MemFree:        1 kB\n"
     << "MemAvailable:   " << avail_kb << " kB\n";
  return ss.str();
}

std::string net_dev_text(std::uint64_t rx, std::uint64_t tx) {
  std::ostringstream ss;
  ss << "Inter-|   Receive                |  Transmit\n"
     << " face |bytes    packets errs drop fifo frame compressed multicast|"
        "bytes    packets errs drop fifo colls carrier compressed\n"
     << "    lo: 999999 9 0 0 0 0 0 0 999999 9 0 0 0 0 0 0\n"
     << "  eth0: " << rx << " 10 0 0 0 0 0 0 " << tx << " 10 0 0 0 0 0 0\n";
  return ss.str();
}

std::string diskstats_text(std::uint64_t sectors_read,
                           std::uint64_t sectors_written) {
  std::ostringstream ss;
  ss << "   7       0 loop0 999 0 999999 0 999 0 999999 0 0 0 0\n"
     << "   1       0 ram0 999 0 999999 0 999 0 999999 0 0 0 0\n"
     << "   8       0 sda 10 0 " << sectors_read << " 100 5 0 "
     << sectors_written << " 100 0 0 0\n";
  return ss.str();
}

std::string pid_stat_text(std::uint64_t pid, const std::string& comm,
                          std::uint64_t ppid, std::uint64_t utime,
                          std::uint64_t stime) {
  std::ostringstream ss;
  ss << pid << " (" << comm << ") S " << ppid
     << " 1 1 0 -1 4194304 100 0 0 0 " << utime << " " << stime
     << " 0 0 20 0 1 0 100 1000 200\n";
  return ss.str();
}

std::string pid_io_text(std::uint64_t read_bytes, std::uint64_t write_bytes) {
  std::ostringstream ss;
  ss << "rchar: 99999\nwchar: 99999\nsyscr: 9\nsyscw: 9\n"
     << "read_bytes: " << read_bytes << "\nwrite_bytes: " << write_bytes
     << "\ncancelled_write_bytes: 0\n";
  return ss.str();
}

/// Whole-host fixture at one instant in counter time.
void set_host_files(FakeProcfs& fs, std::uint64_t busy, std::uint64_t idle,
                    std::uint64_t avail_kb, std::uint64_t sectors,
                    std::uint64_t net_bytes) {
  fs.set("stat", stat_text(busy, idle));
  fs.set("meminfo", meminfo_text(1000, avail_kb));
  fs.set("net/dev", net_dev_text(net_bytes / 2, net_bytes - net_bytes / 2));
  fs.set("diskstats", diskstats_text(sectors / 2, sectors - sectors / 2));
}

// --------------------------------------------------------------- parsers

TEST(Parsers, ProcStatJiffyArithmetic) {
  const host::CpuJiffies j =
      host::parse_proc_stat("cpu  1 2 3 4 5 6 7 8\n", "stat");
  EXPECT_EQ(j.user, 1u);
  EXPECT_EQ(j.idle, 4u);
  EXPECT_EQ(j.busy(), 1u + 2 + 3 + 6 + 7 + 8);
  EXPECT_EQ(j.total(), j.busy() + 4 + 5);
}

TEST(Parsers, ProcStatToleratesMissingLateColumns) {
  // user nice system idle only (ancient kernels): later columns read 0.
  const host::CpuJiffies j =
      host::parse_proc_stat("cpu 10 0 5 100\n", "stat");
  EXPECT_EQ(j.busy(), 15u);
  EXPECT_EQ(j.total(), 115u);
}

TEST(Parsers, ProcStatMissingAggregateLineIsDiagnosed) {
  try {
    host::parse_proc_stat("cpu0 1 2 3 4\nintr 5\n", "stat");
    FAIL() << "expected HostParseError";
  } catch (const HostParseError& e) {
    EXPECT_EQ(e.file(), "stat");
    EXPECT_EQ(e.field(), "cpu");
    EXPECT_NE(std::string(e.what()).find("no aggregate"), std::string::npos);
  }
}

TEST(Parsers, ProcStatTruncatedCounterListNamesTheLine) {
  try {
    host::parse_proc_stat("intr 5\ncpu  1 2 3\n", "stat");
    FAIL() << "expected HostParseError";
  } catch (const HostParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("need >= 4"), std::string::npos);
  }
}

TEST(Parsers, ProcStatGarbageCounterNamesFileLineAndField) {
  try {
    host::parse_proc_stat("cpu  1 2 bogus 4\n", "stat");
    FAIL() << "expected HostParseError";
  } catch (const HostParseError& e) {
    EXPECT_EQ(e.file(), "stat");
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.field(), "system");
    EXPECT_NE(std::string(e.what()).find("'bogus'"), std::string::npos);
  }
}

TEST(Parsers, U64FieldRejectsOverflowAndTrailingGarbage) {
  EXPECT_THROW(host::parse_u64_field("f", 1, "x", "99999999999999999999"),
               HostParseError);
  EXPECT_THROW(host::parse_u64_field("f", 1, "x", "12kB"), HostParseError);
  EXPECT_THROW(host::parse_u64_field("f", 1, "x", "-3"), HostParseError);
  EXPECT_THROW(host::parse_u64_field("f", 1, "x", ""), HostParseError);
  EXPECT_EQ(host::parse_u64_field("f", 1, "x", "42"), 42u);
}

TEST(Parsers, MeminfoFieldsAndFailures) {
  const host::MemInfo mem =
      host::parse_meminfo(meminfo_text(1000, 750), "meminfo");
  EXPECT_EQ(mem.total_kb, 1000u);
  EXPECT_EQ(mem.available_kb, 750u);
  EXPECT_THROW(host::parse_meminfo("MemTotal: 10 kB\n", "meminfo"),
               HostParseError);  // MemAvailable missing
  EXPECT_THROW(
      host::parse_meminfo("MemTotal: 0 kB\nMemAvailable: 0 kB\n", "meminfo"),
      HostParseError);  // zero total would divide by zero later
}

TEST(Parsers, PidStatAnchorsOnLastParenthesis) {
  // A hostile comm containing spaces and ')' must not shift the fields.
  const host::PidStat st = host::parse_pid_stat(
      pid_stat_text(42, "evil) name (x", 7, 100, 50), "42/stat");
  EXPECT_EQ(st.pid, 42u);
  EXPECT_EQ(st.comm, "evil) name (x");
  EXPECT_EQ(st.state, 'S');
  EXPECT_EQ(st.ppid, 7u);
  EXPECT_EQ(st.utime, 100u);
  EXPECT_EQ(st.stime, 50u);
}

TEST(Parsers, PidStatTruncatedTailIsDiagnosed) {
  try {
    host::parse_pid_stat("42 (a) S 1 2 3\n", "42/stat");
    FAIL() << "expected HostParseError";
  } catch (const HostParseError& e) {
    EXPECT_EQ(e.field(), "stime");
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(Parsers, PidStatRejectsMissingCommAndEmptyFile) {
  EXPECT_THROW(host::parse_pid_stat("42 noparens S 1\n", "42/stat"),
               HostParseError);
  EXPECT_THROW(host::parse_pid_stat("", "42/stat"), HostParseError);
}

TEST(Parsers, StatmAndPidIo) {
  EXPECT_EQ(host::parse_statm_rss_pages("300 200 50 10 0 150 0\n",
                                        "42/statm"),
            200u);
  EXPECT_THROW(host::parse_statm_rss_pages("300\n", "42/statm"),
               HostParseError);
  const host::PidIo io = host::parse_pid_io(pid_io_text(1000, 500), "42/io");
  EXPECT_EQ(io.read_bytes, 1000u);
  EXPECT_EQ(io.write_bytes, 500u);
  EXPECT_THROW(host::parse_pid_io("read_bytes: 1\n", "42/io"),
               HostParseError);  // write_bytes missing
}

TEST(Parsers, NetDevSumsInterfacesExceptLoopback) {
  const host::NetDevTotals t =
      host::parse_net_dev(net_dev_text(1000, 2000), "net/dev");
  EXPECT_EQ(t.rx_bytes, 1000u);  // lo's 999999 not counted
  EXPECT_EQ(t.tx_bytes, 2000u);
}

TEST(Parsers, NetDevShortRowNamesTheInterface) {
  try {
    host::parse_net_dev("header\nheader\n  eth0: 1 2 3\n", "net/dev");
    FAIL() << "expected HostParseError";
  } catch (const HostParseError& e) {
    EXPECT_EQ(e.field(), "eth0");
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("need 16"), std::string::npos);
  }
}

TEST(Parsers, NetDevWithNoInterfaceRowsIsDiagnosed) {
  EXPECT_THROW(host::parse_net_dev("header only\n", "net/dev"),
               HostParseError);
}

TEST(Parsers, DiskstatsSkipsPseudoDevicesAndDiagnosesShortRows) {
  const host::DiskTotals t =
      host::parse_diskstats(diskstats_text(100, 200), "diskstats");
  EXPECT_EQ(t.sectors_read, 100u);  // loop0/ram0 ignored
  EXPECT_EQ(t.sectors_written, 200u);
  EXPECT_THROW(host::parse_diskstats("8 0 sda 1 2 3\n", "diskstats"),
               HostParseError);
}

TEST(Parsers, CgroupFiles) {
  EXPECT_EQ(host::parse_cgroup_cpu_usec(
                "usage_usec 123456\nuser_usec 100\nsystem_usec 23\n",
                "cpu.stat"),
            123456u);
  EXPECT_THROW(host::parse_cgroup_cpu_usec("user_usec 100\n", "cpu.stat"),
               HostParseError);
  EXPECT_EQ(host::parse_cgroup_scalar("512000\n", "memory.current"), 512000u);
  EXPECT_THROW(host::parse_cgroup_scalar("max\n", "memory.current"),
               HostParseError);
  EXPECT_THROW(host::parse_cgroup_scalar("1 2\n", "memory.current"),
               HostParseError);
}

// ------------------------------------------------------------ FakeProcfs

TEST(FakeProcfsTest, PidsAreNumericallySortedAndDeduped) {
  FakeProcfs fs;
  fs.set("10/stat", "x");
  fs.set("9/stat", "x");
  fs.set("9/statm", "x");
  fs.set("100/stat", "x");
  fs.set("net/dev", "x");  // non-numeric dirs are not pids
  EXPECT_EQ(fs.pids(), (std::vector<std::uint64_t>{9, 10, 100}));
  EXPECT_FALSE(fs.read("missing").has_value());
  EXPECT_EQ(fs.read("net/dev").value(), "x");
}

// ---------------------------------------------------- whole-host sampling

HostSamplerOptions metered_options(obs::MetricsRegistry* registry) {
  HostSamplerOptions o;
  o.io_full_scale = 512e3;  // 1000 sectors/s = full scale
  o.net_full_scale = 1e6;
  o.metrics = registry;
  return o;
}

TEST(HostSamplerTest, FirstSampleHasRealLevelsAndZeroRates) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 200, 2000);
  obs::MetricsRegistry registry;
  HostSampler sampler(fs, metered_options(&registry));
  const std::vector<double> x = sampler.sample(1000);
  ASSERT_EQ(x.size(), HostSampler::kNumResources);
  EXPECT_EQ(x[0], 0.0);                // cpu: no previous jiffies
  EXPECT_DOUBLE_EQ(x[1], 0.25);        // memory: (1000-750)/1000
  EXPECT_EQ(x[2], 0.0);                // io: no previous counters
  EXPECT_EQ(x[3], 0.0);                // net
  EXPECT_EQ(registry.value("resmon_host_samples_total").value_or(0), 1.0);
}

TEST(HostSamplerTest, SecondSampleComputesRatesFromCounterDeltas) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 200, 2000);
  obs::MetricsRegistry registry;
  HostSampler sampler(fs, metered_options(&registry));
  sampler.sample(1000);
  // +100 busy jiffies of +400 total; +500 sectors; +500000 net bytes; 1 s.
  set_host_files(fs, 200, 1200, 600, 700, 502000);
  const std::vector<double> x = sampler.sample(2000);
  EXPECT_DOUBLE_EQ(x[0], 0.25);  // 100 / 400 jiffies
  EXPECT_DOUBLE_EQ(x[1], 0.4);   // (1000-600)/1000
  EXPECT_DOUBLE_EQ(x[2], 0.5);   // 500 sectors * 512 B / 1 s / 512e3
  EXPECT_DOUBLE_EQ(x[3], 0.5);   // 500000 B / 1 s / 1e6
  EXPECT_EQ(registry.value("resmon_host_utilization",
                           {{"resource", "cpu"}}).value_or(-1),
            0.25);
}

TEST(HostSamplerTest, RatesClampAtFullScale) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  HostSampler sampler(fs, metered_options(nullptr));
  sampler.sample(1000);
  set_host_files(fs, 5000, 900, 750, 1000000, 100000000);
  const std::vector<double> x = sampler.sample(2000);
  EXPECT_EQ(x[0], 1.0);
  EXPECT_EQ(x[2], 1.0);
  EXPECT_EQ(x[3], 1.0);
}

TEST(HostSamplerTest, CounterWrapYieldsZeroRateNotSpike) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 200, 500000);
  obs::MetricsRegistry registry;
  HostSampler sampler(fs, metered_options(&registry));
  sampler.sample(1000);
  // Net counter moves backwards (wrap/reset); CPU/disk advance normally.
  set_host_files(fs, 200, 1200, 750, 700, 1000);
  const std::vector<double> x = sampler.sample(2000);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
  EXPECT_EQ(x[3], 0.0);  // not (2^64 - huge) / scale
  EXPECT_EQ(registry.value("resmon_host_counter_wraps_total").value_or(0),
            1.0);
  // The next interval re-baselines off the post-wrap value.
  set_host_files(fs, 300, 1500, 750, 1200, 501000);
  EXPECT_DOUBLE_EQ(sampler.sample(3000)[3], 0.5);
}

TEST(HostSamplerTest, CpuJiffyWrapYieldsZeroCpu) {
  FakeProcfs fs;
  set_host_files(fs, 1000, 900, 750, 0, 0);
  obs::MetricsRegistry registry;
  HostSampler sampler(fs, metered_options(&registry));
  sampler.sample(1000);
  set_host_files(fs, 100, 3000, 750, 0, 0);  // busy wrapped, idle advanced
  const std::vector<double> x = sampler.sample(2000);
  EXPECT_EQ(x[0], 0.0);
  EXPECT_GE(registry.value("resmon_host_counter_wraps_total").value_or(0),
            1.0);
}

TEST(HostSamplerTest, ZeroLengthIntervalYieldsZeroRates) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 200, 2000);
  HostSampler sampler(fs, metered_options(nullptr));
  sampler.sample(1000);
  set_host_files(fs, 200, 1200, 750, 700, 502000);
  const std::vector<double> x = sampler.sample(1000);  // dt = 0
  EXPECT_EQ(x[2], 0.0);  // no division by zero
  EXPECT_EQ(x[3], 0.0);
}

TEST(HostSamplerTest, MissingRequiredFileIsAnErrorAndCounted) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 200, 2000);
  fs.remove("meminfo");
  obs::MetricsRegistry registry;
  HostSampler sampler(fs, metered_options(&registry));
  try {
    sampler.sample(1000);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("meminfo"), std::string::npos);
  }
  EXPECT_EQ(registry.value("resmon_host_parse_errors_total").value_or(0),
            1.0);
  EXPECT_EQ(registry.value("resmon_host_samples_total").value_or(-1), 0.0);
}

TEST(HostSamplerTest, MalformedContentNamesFileLineAndField) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 200, 2000);
  fs.set("stat", "cpu  1 2 NaN 4\n");
  obs::MetricsRegistry registry;
  HostSampler sampler(fs, metered_options(&registry));
  try {
    sampler.sample(1000);
    FAIL() << "expected HostParseError";
  } catch (const HostParseError& e) {
    EXPECT_EQ(e.file(), "stat");
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.field(), "system");
  }
  EXPECT_EQ(registry.value("resmon_host_parse_errors_total").value_or(0),
            1.0);
}

// ------------------------------------------------------ process-tree mode

/// Two watched processes (100 and its child 101) plus an unrelated 102.
void set_tree_files(FakeProcfs& fs, std::uint64_t jiffy_scale,
                    std::uint64_t io_scale) {
  fs.set("100/stat", pid_stat_text(100, "root proc", 1, 10 * jiffy_scale,
                                   10 * jiffy_scale));
  fs.set("100/statm", "300 200 50 10 0 150 0\n");
  fs.set("100/io", pid_io_text(1000 * io_scale, 1000 * io_scale));
  fs.set("101/stat",
         pid_stat_text(101, "worker", 100, 5 * jiffy_scale, 5 * jiffy_scale));
  fs.set("101/statm", "150 100 20 5 0 80 0\n");
  fs.set("101/io", pid_io_text(500 * io_scale, 500 * io_scale));
  fs.set("102/stat", pid_stat_text(102, "bystander", 1, 999999, 999999));
  fs.set("102/statm", "99999 99999 0 0 0 0 0\n");
  fs.set("102/io", pid_io_text(99999999, 99999999));
}

HostSamplerOptions tree_options(obs::MetricsRegistry* registry) {
  HostSamplerOptions o;
  o.watch_pids = {100};
  o.page_size = 1024;
  o.io_full_scale = 10e3;  // 10 kB/s = full scale
  o.net_full_scale = 1e6;
  o.metrics = registry;
  return o;
}

TEST(HostSamplerTest, WatchedTreeAggregatesDescendantsOnly) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  set_tree_files(fs, 1, 1);
  obs::MetricsRegistry registry;
  HostSampler sampler(fs, tree_options(&registry));
  const std::vector<double> x = sampler.sample(1000);
  // Memory is immediate: (200 + 100 pages) * 1024 B / 1024000 B = 0.3;
  // the bystander's huge RSS must not leak in.
  EXPECT_DOUBLE_EQ(x[1], 0.3);
  EXPECT_EQ(registry.value("resmon_host_watched_processes").value_or(0),
            2.0);

  // Tree jiffies double (+30) while the host total advances +400.
  set_host_files(fs, 200, 1200, 750, 0, 0);
  set_tree_files(fs, 2, 2);
  const std::vector<double> y = sampler.sample(2000);
  EXPECT_DOUBLE_EQ(y[0], 30.0 / 400.0);
  // Tree IO doubled: +3000 B over 1 s at 10 kB/s full scale.
  EXPECT_DOUBLE_EQ(y[2], 0.3);
}

TEST(HostSamplerTest, DescendantsExcludedWhenDisabled) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  set_tree_files(fs, 1, 1);
  obs::MetricsRegistry registry;
  HostSamplerOptions o = tree_options(&registry);
  o.include_descendants = false;
  HostSampler sampler(fs, o);
  const std::vector<double> x = sampler.sample(1000);
  EXPECT_DOUBLE_EQ(x[1], 200.0 * 1024 / 1024000);  // root's RSS only
  EXPECT_EQ(registry.value("resmon_host_watched_processes").value_or(0),
            1.0);
}

TEST(HostSamplerTest, VanishedPidFilesAreExitRacesNotErrors) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  set_tree_files(fs, 1, 1);
  // 101 exits between the directory scan and the reads: its stat vanishes
  // but a stale statm key remains, so pids() still lists it.
  fs.remove("101/stat");
  HostSampler sampler(fs, tree_options(nullptr));
  const std::vector<double> x = sampler.sample(1000);
  EXPECT_DOUBLE_EQ(x[1], 200.0 * 1024 / 1024000);  // root only
}

TEST(HostSamplerTest, WatchedRootGoneMeansEmptyTree) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  obs::MetricsRegistry registry;
  HostSampler sampler(fs, tree_options(&registry));
  const std::vector<double> x = sampler.sample(1000);
  EXPECT_EQ(x[1], 0.0);
  EXPECT_EQ(registry.value("resmon_host_watched_processes").value_or(-1),
            0.0);
}

// ------------------------------------------------------------ cgroup mode

TEST(HostSamplerTest, CgroupV2OverridesCpuAndMemory) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  FakeProcfs cgroup;
  cgroup.set("cpu.stat", "usage_usec 1000000\nuser_usec 600000\n");
  cgroup.set("memory.current", "512000\n");
  obs::MetricsRegistry registry;
  HostSamplerOptions o = metered_options(&registry);
  o.cgroup = &cgroup;
  HostSampler sampler(fs, o);
  const std::vector<double> x = sampler.sample(1000);
  EXPECT_DOUBLE_EQ(x[1], 0.5);  // 512000 B / 1024000 B
  EXPECT_EQ(registry.value("resmon_host_cgroup_active").value_or(0), 1.0);

  // +1 s of usage over 1 s wall on the fixture's 2 cpus = 0.5 utilization.
  set_host_files(fs, 200, 1200, 750, 0, 0);
  cgroup.set("cpu.stat", "usage_usec 2000000\nuser_usec 900000\n");
  EXPECT_DOUBLE_EQ(sampler.sample(2000)[0], 0.5);
}

TEST(HostSamplerTest, PartialCgroupFallsBackToProcfs) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  FakeProcfs cgroup;
  cgroup.set("cpu.stat", "usage_usec 1000000\n");  // memory.current missing
  obs::MetricsRegistry registry;
  HostSamplerOptions o = metered_options(&registry);
  o.cgroup = &cgroup;
  HostSampler sampler(fs, o);
  const std::vector<double> x = sampler.sample(1000);
  EXPECT_DOUBLE_EQ(x[1], 0.25);  // procfs meminfo view
  EXPECT_EQ(registry.value("resmon_host_cgroup_active").value_or(-1), 0.0);
}

// -------------------------------------------------------------- recording

host::Recording write_and_read(const std::vector<std::vector<double>>& rows) {
  std::ostringstream out;
  host::RecordingWriter writer(out, 100, rows.front().size());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    writer.append(rows[t], 5000 + 100 * t);
  }
  writer.finish();
  std::istringstream in(out.str());
  return host::read_recording(in, "<mem>");
}

TEST(RecordingTest, RoundTripsValuesBitExactly) {
  const std::vector<std::vector<double>> rows = {
      {0.1, 1.0 / 3.0, 0.0, 1e-17},
      {0.30000000000000004, 1.0, 0.9999999999999999, 2.2250738585072014e-308},
  };
  const host::Recording rec = write_and_read(rows);
  EXPECT_EQ(rec.interval_ms, 100u);
  EXPECT_EQ(rec.rows, rows);  // exact double equality, not approximate
  EXPECT_EQ(rec.timestamps_ms,
            (std::vector<std::uint64_t>{5000, 5100}));
}

TEST(RecordingTest, RecordingsDoubleAsPlainCsvTraces) {
  // The format is a strict superset of the trace CSV grammar: the magic,
  // metadata, ts and end lines are comments the loader skips.
  std::ostringstream out;
  host::RecordingWriter writer(out, 100, 4);
  const std::vector<double> row0 = {0.25, 0.5, 0.0, 0.125};
  const std::vector<double> row1 = {0.5, 0.75, 1.0, 0.0};
  writer.append(row0, 1000);
  writer.append(row1, 1100);
  writer.finish();
  std::istringstream in(out.str());
  const trace::InMemoryTrace t = trace::load_csv(in);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_steps(), 2u);
  EXPECT_EQ(t.num_resources(), 4u);
  EXPECT_EQ(t.measurement(0, 0), row0);
  EXPECT_EQ(t.measurement(0, 1), row1);
}

std::string valid_recording_text() {
  std::ostringstream out;
  host::RecordingWriter writer(out, 100, 2);
  writer.append(std::vector<double>{0.1, 0.2}, 1000);
  writer.append(std::vector<double>{0.3, 0.4}, 1100);
  writer.finish();
  return out.str();
}

void expect_rejects(std::string text, const std::string& detail_substring) {
  std::istringstream in(text);
  try {
    host::read_recording(in, "<mem>");
    FAIL() << "expected HostParseError containing '" << detail_substring
           << "'";
  } catch (const HostParseError& e) {
    EXPECT_NE(std::string(e.what()).find(detail_substring),
              std::string::npos)
        << "actual: " << e.what();
  }
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos);
  return text.replace(at, from.size(), to);
}

TEST(RecordingTest, HostileInputsAreDiagnosedNotCrashed) {
  const std::string good = valid_recording_text();
  // Corrupted magic line.
  expect_rejects(replace_once(good, "recording v1", "recording v9"),
                 "not a host recording");
  // Corrupted/unknown metadata.
  expect_rejects(replace_once(good, "interval_ms=", "cadence_ms="),
                 "unknown metadata key");
  expect_rejects(replace_once(good, "resources=2", "resources=0"),
                 "nonzero resources");
  // Header drift.
  expect_rejects(replace_once(good, "node,step", "node,slot"),
                 "expected 'node,step'");
  // Rows must be node 0 and consecutive.
  expect_rejects(replace_once(good, "0,1,", "1,1,"), "single-node");
  expect_rejects(replace_once(good, "0,1,", "0,7,"), "consecutive step");
  // Values must be finite numbers. (%.17g writes 0.3 with its full
  // mantissa, so match the serialized text, not the source literal.)
  expect_rejects(replace_once(good, "0.29999999999999999", "nan"),
                 "finite number");
  expect_rejects(replace_once(good, "0.29999999999999999", "inf"),
                 "finite number");
  // Truncation: missing trailer, wrong row count, data after the end.
  expect_rejects(good.substr(0, good.find("# ts_ms=")), "truncated");
  expect_rejects(replace_once(good, "# end rows=2", "# end rows=5"),
                 "truncated or corrupted");
  expect_rejects(good + "0,2,0.5,0.6\n", "after the '# end'");
  // Timestamp list must match the rows.
  expect_rejects(replace_once(good, "ts_ms=1000,1100", "ts_ms=1000"),
                 "timestamp list");
  // An empty-but-well-formed recording carries no samples to replay.
  std::ostringstream empty;
  host::RecordingWriter writer(empty, 100, 2);
  writer.finish();
  expect_rejects(empty.str(), "no samples");
}

TEST(RecordingTest, WriterEnforcesItsProtocol) {
  std::ostringstream out;
  host::RecordingWriter writer(out, 100, 2);
  EXPECT_THROW(writer.append(std::vector<double>{0.1}, 1000), Error);
  writer.append(std::vector<double>{0.1, 0.2}, 1000);
  writer.finish();
  EXPECT_THROW(writer.finish(), Error);
  EXPECT_THROW(writer.append(std::vector<double>{0.1, 0.2}, 1100), Error);
}

// ---------------------------------------------------------------- sources

TEST(ProcfsSamplerSourceTest, PacesSlotsAgainstTheFirstSampleAnchor) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 200, 2000);
  HostSampler sampler(fs, metered_options(nullptr));

  std::uint64_t now = 1000;
  std::vector<std::uint64_t> sleeps;
  std::ostringstream out;
  host::RecordingWriter recorder(out, 100, HostSampler::kNumResources);
  host::ProcfsSamplerSource::Options o;
  o.interval_ms = 100;
  o.now_ms = [&now] { return now; };
  o.sleep_ms = [&now, &sleeps](std::uint64_t ms) {
    sleeps.push_back(ms);
    now += ms;
  };
  o.recorder = &recorder;
  host::ProcfsSamplerSource source(sampler, o);

  source.measurement(0);  // anchors at 1000, no sleep
  now += 37;              // sampling overhead / jitter
  source.measurement(1);  // deadline 1100: sleeps 63
  now += 250;             // a slow slot overshoots slot 2 entirely
  source.measurement(2);  // deadline 1200 already passed: no sleep
  recorder.finish();

  EXPECT_EQ(sleeps, (std::vector<std::uint64_t>{63}));
  std::istringstream in(out.str());
  const host::Recording rec = host::read_recording(in, "<mem>");
  EXPECT_EQ(rec.timestamps_ms,
            (std::vector<std::uint64_t>{1000, 1100, 1350}));
  EXPECT_EQ(sampler.samples_taken(), 3u);
}

TEST(ReplaySourceTest, ReplaysRowsBoundedAndBitExact) {
  const std::vector<std::vector<double>> rows = {{0.1, 0.2}, {0.3, 0.4}};
  host::ReplaySource source(write_and_read(rows));
  EXPECT_EQ(source.num_resources(), 2u);
  EXPECT_EQ(source.num_steps(), 2u);
  EXPECT_EQ(source.measurement(0), rows[0]);
  EXPECT_EQ(source.measurement(1), rows[1]);
  EXPECT_THROW(source.measurement(2), Error);
}

// ------------------------------------------- record/replay determinism

/// The tentpole invariant end to end, kernel-free: sample a *changing*
/// FakeProcfs through the live source while recording, then replay the
/// recording — the two pipelines' forecasts must be bit-identical at
/// every step and horizon.
TEST(RecordReplay, PipelinesOverRecordAndReplayAreBitIdentical) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 200, 2000);
  HostSampler sampler(fs, metered_options(nullptr));

  std::uint64_t now = 1000;
  std::ostringstream out;
  host::RecordingWriter recorder(out, 100, HostSampler::kNumResources);
  host::ProcfsSamplerSource::Options o;
  o.interval_ms = 100;
  o.now_ms = [&now] { return now; };
  o.sleep_ms = [&now](std::uint64_t ms) { now += ms; };
  o.recorder = &recorder;
  host::ProcfsSamplerSource source(sampler, o);

  const std::size_t kSteps = 24;
  std::vector<std::vector<double>> live_rows;
  for (std::size_t t = 0; t < kSteps; ++t) {
    live_rows.push_back(source.measurement(t));
    // Mutate the "kernel" between samples: drifting counters make every
    // slot's measurement distinct.
    set_host_files(fs, 100 + 40 * (t + 1), 900 + 360 * (t + 1),
                   750 - 10 * (t % 20), 200 + 137 * (t + 1),
                   2000 + 90001 * (t + 1));
  }
  recorder.finish();

  std::istringstream in(out.str());
  const host::Recording rec = host::read_recording(in, "<mem>");
  ASSERT_EQ(rec.rows, live_rows);  // the recording *is* the live series

  const auto to_trace = [](const std::vector<std::vector<double>>& rows) {
    trace::InMemoryTrace t(1, rows.size(), rows.front().size());
    for (std::size_t step = 0; step < rows.size(); ++step) {
      for (std::size_t r = 0; r < rows[step].size(); ++r) {
        t.set_value(0, step, r, rows[step][r]);
      }
    }
    return t;
  };
  const trace::InMemoryTrace live = to_trace(live_rows);
  const trace::InMemoryTrace replay = to_trace(rec.rows);

  core::PipelineOptions popt;
  popt.num_clusters = 1;
  popt.schedule = {.initial_steps = 4, .retrain_interval = 8};
  sim::Driver a(live, popt);
  sim::Driver b(replay, popt);
  for (std::size_t t = 0; t < kSteps; ++t) {
    a.step();
    b.step();
    for (const std::size_t h : {std::size_t{0}, std::size_t{1}}) {
      const Matrix fa = a.pipeline().forecast_all(h);
      const Matrix fb = b.pipeline().forecast_all(h);
      ASSERT_EQ(fa.rows(), fb.rows());
      for (std::size_t n = 0; n < fa.rows(); ++n) {
        for (std::size_t r = 0; r < fa.cols(); ++r) {
          ASSERT_EQ(fa(n, r), fb(n, r))
              << "forecast diverged at t=" << t << " h=" << h;
        }
      }
    }
  }
}

}  // namespace
}  // namespace resmon
