// Strict parsers for the procfs file formats the HostSampler reads.
//
// Every parser takes the file's full contents plus its name and throws
// HostParseError naming the file, 1-based line and offending field on any
// malformed input — a truncated /proc/stat or a garbage counter is always
// diagnosed, never silently misread (the hostile-content suite in
// tests/test_host.cpp drives each failure mode under ASan+UBSan).
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace resmon::host {

/// Malformed procfs/recording content. The message always reads
/// `<file>:<line>: field '<field>': <detail>`.
class HostParseError final : public Error {
 public:
  HostParseError(const std::string& file, std::size_t line,
                 const std::string& field, const std::string& detail)
      : Error(file + ":" + std::to_string(line) + ": field '" + field +
              "': " + detail),
        file_(file),
        line_(line),
        field_(field) {}

  const std::string& file() const { return file_; }
  std::size_t line() const { return line_; }
  const std::string& field() const { return field_; }

 private:
  std::string file_;
  std::size_t line_;
  std::string field_;
};

/// Parse one unsigned 64-bit counter field (digits only, whole token).
std::uint64_t parse_u64_field(const std::string& file, std::size_t line,
                              const std::string& field,
                              const std::string& token);

/// Aggregate jiffy counters from the first "cpu " line of /proc/stat.
struct CpuJiffies {
  std::uint64_t user = 0;
  std::uint64_t nice = 0;
  std::uint64_t system = 0;
  std::uint64_t idle = 0;
  std::uint64_t iowait = 0;
  std::uint64_t irq = 0;
  std::uint64_t softirq = 0;
  std::uint64_t steal = 0;

  std::uint64_t busy() const {
    return user + nice + system + irq + softirq + steal;
  }
  std::uint64_t total() const { return busy() + idle + iowait; }
};
CpuJiffies parse_proc_stat(const std::string& contents,
                           const std::string& file);

/// MemTotal / MemAvailable out of /proc/meminfo (kB).
struct MemInfo {
  std::uint64_t total_kb = 0;
  std::uint64_t available_kb = 0;
};
MemInfo parse_meminfo(const std::string& contents, const std::string& file);

/// The fields of /proc/<pid>/stat the sampler needs. The comm field is
/// parenthesised and may itself contain spaces and ')' — parsing anchors
/// on the *last* ')' as the kernel format requires.
struct PidStat {
  std::uint64_t pid = 0;
  std::string comm;
  char state = '?';
  std::uint64_t ppid = 0;
  std::uint64_t utime = 0;  ///< jiffies in user mode
  std::uint64_t stime = 0;  ///< jiffies in kernel mode
};
PidStat parse_pid_stat(const std::string& contents, const std::string& file);

/// Resident set size in pages (second field of /proc/<pid>/statm).
std::uint64_t parse_statm_rss_pages(const std::string& contents,
                                    const std::string& file);

/// read_bytes / write_bytes out of /proc/<pid>/io.
struct PidIo {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
};
PidIo parse_pid_io(const std::string& contents, const std::string& file);

/// Cumulative rx/tx byte counters summed over every interface except the
/// loopback, from /proc/net/dev.
struct NetDevTotals {
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
};
NetDevTotals parse_net_dev(const std::string& contents,
                           const std::string& file);

/// Cumulative sectors read/written summed over block devices from
/// /proc/diskstats. loop/ram pseudo-devices are skipped; partitions are
/// counted alongside their disks (the full-scale normalization absorbs the
/// constant factor — see kIoFullScale in sampler.cpp).
struct DiskTotals {
  std::uint64_t sectors_read = 0;
  std::uint64_t sectors_written = 0;
};
DiskTotals parse_diskstats(const std::string& contents,
                           const std::string& file);

}  // namespace resmon::host
