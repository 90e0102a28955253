// resmon::host unit suite: every test drives the sampler, parsers,
// recording codec and sources from FakeProcfs fixtures and hand-advanced
// clocks — no live-kernel reads anywhere in ctest (DESIGN.md "Host
// collection"). The hostile-content cases double as the ASan+UBSan fodder
// the CI matrix runs: truncated files, counter wraps, zero-length
// intervals and corrupted recordings must all be *diagnosed*, never
// crash or silently misread.
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collect/measurement_source.hpp"
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
  // +100 busy jiffies of +400 total; +390625 sectors; +125e6 net bytes;
  // 2 s (the shortest whole-second interval with a whole sector count).
  set_host_files(fs, 200, 1200, 600, 390825, 125002000);
  const std::vector<double> x = sampler.sample(3000);
  EXPECT_DOUBLE_EQ(x[0], 0.25);  // 100 / 400 jiffies
  EXPECT_DOUBLE_EQ(x[1], 0.4);   // (1000-600)/1000
  EXPECT_DOUBLE_EQ(x[2], 0.5);   // 390625 sectors * 512 B / 2 s / 200e6
  EXPECT_DOUBLE_EQ(x[3], 0.5);   // 125e6 B / 2 s / 125e6
  EXPECT_EQ(registry.value("resmon_host_utilization",
                           {{"resource", "cpu"}}).value_or(-1),
            0.25);
}

TEST(HostSamplerTest, RatesClampAtFullScale) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  HostSampler sampler(fs, metered_options(nullptr));
  sampler.sample(1000);
  set_host_files(fs, 5000, 900, 750, 1000000, 1000000000);
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
  set_host_files(fs, 300, 1500, 750, 1200, 62501000);
  EXPECT_DOUBLE_EQ(sampler.sample(3000)[3], 0.5);  // 62.5e6 B / 1 s
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
  o.metrics = registry;
  return o;
}

TEST(HostSamplerTest, WatchedTreeAggregatesDescendantsOnly) {
  FakeProcfs fs;
  set_host_files(fs, 100, 900, 750, 0, 0);
  set_tree_files(fs, 1, 20000);
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
  set_tree_files(fs, 2, 40000);
  const std::vector<double> y = sampler.sample(2000);
  EXPECT_DOUBLE_EQ(y[0], 30.0 / 400.0);
  // Tree IO doubled: +6e7 B over 1 s at 200 MB/s full scale.
  EXPECT_DOUBLE_EQ(y[2], 0.3);
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

// -------------------------------------------------------------- recording

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos);
  return text.replace(at, from.size(), to);
}

std::string recording_text(const std::vector<std::vector<double>>& rows) {
  std::ostringstream out;
  host::RecordingWriter writer(out, 100, rows.front().size());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    writer.append(rows[t], 5000 + 100 * t);
  }
  writer.finish();
  return out.str();
}

trace::InMemoryTrace write_and_read(
    const std::vector<std::vector<double>>& rows) {
  std::istringstream in(recording_text(rows));
  return host::read_recording(in, "<mem>");
}

TEST(RecordingTest, RoundTripsValuesBitExactly) {
  const std::vector<std::vector<double>> rows = {
      {0.1, 1.0 / 3.0, 0.0, 1e-17},
      {0.30000000000000004, 1.0, 0.9999999999999999, 2.2250738585072014e-308},
  };
  const trace::InMemoryTrace rec = write_and_read(rows);
  ASSERT_EQ(rec.num_nodes(), 1u);
  ASSERT_EQ(rec.num_steps(), rows.size());
  ASSERT_EQ(rec.num_resources(), 4u);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    // exact double equality, not approximate
    EXPECT_EQ(rec.measurement(0, t), rows[t]) << "step " << t;
  }
  // The interval and timestamps stay in the file; the reader validates
  // them without returning them.
  const std::string text = recording_text(rows);
  EXPECT_NE(text.find("\n# interval_ms=100 resources=4\n"), std::string::npos);
  EXPECT_NE(text.find("\n# ts_ms=5000,5100\n"), std::string::npos);
}

TEST(RecordingTest, RecordingsDoubleAsPlainCsvTraces) {
  // The format is a strict superset of the trace CSV grammar: the magic,
  // metadata, ts and end lines are comments the loader skips.
  const std::vector<double> row0 = {0.25, 0.5, 0.0, 0.125};
  const std::vector<double> row1 = {0.5, 0.75, 1.0, 0.0};
  const std::vector<double> row2 = {0.1, 1.0 / 3.0, 1e-17,
                                    2.2250738585072014e-308};
  const std::string text = recording_text({row0, row1, row2});
  std::istringstream in(text);
  const trace::InMemoryTrace t = trace::load_csv(in);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_steps(), 3u);
  EXPECT_EQ(t.num_resources(), 4u);
  EXPECT_EQ(t.measurement(0, 0), row0);
  EXPECT_EQ(t.measurement(0, 1), row1);
  EXPECT_EQ(t.measurement(0, 2), row2);
  // One row reader: the recording reader returns the very same trace.
  std::istringstream again(text);
  EXPECT_TRUE(host::read_recording(again, "<mem>") == t);
}

TEST(RecordingTest, BothReadersApplyTheSameCellRule) {
  // The finite-number rule of common/parse.hpp, for both readers: no
  // leading whitespace, no '+', no hex, nothing non-finite or out of range,
  // no empty cell, no trailing characters.
  const std::string good = recording_text({{0.1, 0.2}, {0.375, 0.4}});
  for (const std::string cell :
       {" 0.5", "+0.5", "0x1p-2", "nan", "inf", "1e400", "", "0.5x"}) {
    std::istringstream recording(replace_once(good, "0.375", cell));
    EXPECT_THROW(host::read_recording(recording, "<mem>"), HostParseError)
        << "recording cell '" << cell << "'";
    std::istringstream csv("node,step,cpu\n0,0," + cell + "\n");
    EXPECT_THROW(trace::load_csv(csv), InvalidArgument)
        << "csv cell '" << cell << "'";
  }
  // A subnormal is finite: both readers take it, bit for bit.
  const std::string subnormal = "4.9406564584124654e-324";
  std::istringstream recording(replace_once(good, "0.375", subnormal));
  EXPECT_EQ(host::read_recording(recording, "<mem>").value(0, 1, 0),
            std::numeric_limits<double>::denorm_min());
  std::istringstream csv("node,step,cpu\n0,0," + subnormal + "\n");
  EXPECT_EQ(trace::load_csv(csv).value(0, 0, 0),
            std::numeric_limits<double>::denorm_min());
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
  // A resources count that wraps 2 + resources must not index past a
  // one-field header.
  expect_rejects(replace_once(replace_once(good, "resources=2",
                                           "resources=18446744073709551615"),
                              "node,step,r0,r1", "node"),
                 "expected 'node,step'");
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
  EXPECT_NE(out.str().find("\n# ts_ms=1000,1100,1350\n"), std::string::npos)
      << out.str();
  EXPECT_EQ(sampler.samples_taken(), 3u);
}

TEST(RecordReplay, TraceSourceReplaysARecordingBoundedAndBitExact) {
  const std::vector<std::vector<double>> rows = {{0.1, 0.2}, {0.3, 0.4}};
  const trace::InMemoryTrace recording = write_and_read(rows);
  EXPECT_EQ(recording.num_resources(), 2u);
  EXPECT_EQ(recording.num_steps(), 2u);
  collect::TraceSource source(recording, 0);
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
  trace::InMemoryTrace live(1, kSteps, HostSampler::kNumResources);
  for (std::size_t t = 0; t < kSteps; ++t) {
    const std::vector<double> x = source.measurement(t);
    for (std::size_t r = 0; r < x.size(); ++r) live.set_value(0, t, r, x[r]);
    // Mutate the "kernel" between samples: drifting counters make every
    // slot's measurement distinct.
    set_host_files(fs, 100 + 40 * (t + 1), 900 + 360 * (t + 1),
                   750 - 10 * (t % 20), 200 + 137 * (t + 1),
                   2000 + 90001 * (t + 1));
  }
  recorder.finish();

  std::istringstream in(out.str());
  const trace::InMemoryTrace replay = host::read_recording(in, "<mem>");
  ASSERT_TRUE(replay == live);  // the recording *is* the live series

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
